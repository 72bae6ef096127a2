"""The public names of ``hdgplate`` and the ones the benchmark harness in
``perfbench/`` reads, so that removing one fails here first."""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest
import scipy.sparse as sp

from hdgplate import assembly, femspace, solver, verification
from hdgplate.mesh import Mesh, generate_structured
from oracles import schur_triplets

MODULES = ["assembly", "cli", "femspace", "mesh", "solver", "verification"]

# module attributes that perfbench/tracing.py wraps and perfbench/study.py
# calls
HARNESS_NAMES = {
    assembly: ["PlateMaterial", "SpaceConfig", "element_batches",
               "assemble_step1", "assemble_step2", "assemble_step3"],
    femspace: ["triangle_reference_rule"],
    solver: ["solve_stage", "condense", "solve_spd", "solve_saddle_trace",
             "back_substitute", "full_residual"],
    verification: ["exact_fields", "solve_plate", "table_errors",
                   "recover_gamma", "element_batches", "RateTable",
                   "ErrorReport"],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hdgplate.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing


def test_harness_names_exist():
    for module, names in HARNESS_NAMES.items():
        for attr in names:
            assert callable(getattr(module, attr, None)), \
                f"{module.__name__}.{attr}"


def test_mesh_attributes_the_harness_reads():
    base = generate_structured("quadrilateral", 2)
    mesh = Mesh(base.points, [el.vertex_loop for el in base.elements])
    assert mesh.elements[0].vertex_loop == (0, 1, 4, 3)
    assert (mesh.num_elements, mesh.num_edges) == (4, 12)


def test_condensed_nnz_the_harness_reads(monkeypatch):
    # perfbench records condense(bs).S.nnz as solver.S_nnz.<stage>: for
    # each stage, the stored entries of the COO-to-CSR sum of the local
    # blocks with its exact zeros kept, stage two's B12^T included; it
    # names the stage from bs.stage and cond.system.stage, and counts
    # bs.n_interior and bs.n_trace
    condense, seen = solver.condense, []

    def record(bs):
        cond = condense(bs)
        seen.append((bs, cond, cond.S.nnz))
        return cond
    monkeypatch.setattr(solver, "condense", record)
    mat = assembly.PlateMaterial(t=1e-2)
    verification.solve_plate(generate_structured("quadrilateral", 3),
                             assembly.SpaceConfig(2), mat,
                             verification.exact_fields(mat))
    assert [bs.stage for bs, *_ in seen] == ["step1", "step2", "step3"]
    for bs, cond, nnz in seen:
        assert cond.system is bs
        assert bs.n_interior == sum(grp.b1.size for grp in bs.groups)
        assert bs.n_trace == len(cond.rhs)
        rows, cols, vals = map(np.concatenate, zip(*schur_triplets(bs)))
        ref = sp.coo_matrix((vals, (rows, cols)), (bs.n_trace,) * 2).tocsr()
        assert type(nnz) is int and nnz == ref.nnz, bs.stage


def test_table_errors_quad_degree_default():
    # perfbench reads the default through the signature to count points
    param = inspect.signature(verification.table_errors).parameters[
        "quad_degree"]
    assert param.default == verification.ERROR_DEGREE
    assert isinstance(param.default, int)


def test_rate_table_and_error_report_as_the_harness_builds_them():
    # ErrorReport(n, iterations, *errors), positionally
    fields = [f.name for f in dataclasses.fields(verification.ErrorReport)]
    assert fields[:6] == ["n", "iterations", "err_theta", "err_tgamma",
                          "err_sigma", "err_omega"]
    table = verification.RateTable("triangle", assembly.SpaceConfig(k=1),
                                   assembly.PlateMaterial(t=1e-2))
    table.reports = [verification.ErrorReport(n, 10, *[1.0 / n] * 4)
                     for n in (4, 8)]
    assert table.final_rates() == pytest.approx((1.0,) * 4)
    assert callable(table.write_csv)
