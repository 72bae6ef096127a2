"""The public names of ``hdgplate`` and the ones the benchmark harness in
``perfbench/`` reads, so that removing one fails here first."""

import dataclasses
import importlib
import inspect

import pytest

from hdgplate import assembly, femspace, solver, verification
from hdgplate.mesh import Mesh, generate_structured

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
