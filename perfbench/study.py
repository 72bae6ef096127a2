"""One pass over a workload's cases, timed through the tracer's clock.

The library is driven the way a user drives it: ``mesh.Mesh(points,
loops)``, ``verification.solve_plate`` and ``verification.table_errors``,
with the exact fields from ``verification.exact_fields``.  Generating the
seeded ``points`` and ``loops`` and the correctness checks are outside
the timed work.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import time
import traceback

import gate
from hdgplate import mesh as mesh_mod
from hdgplate import verification as vf
from hdgplate.assembly import PlateMaterial, SpaceConfig
from hdgplate.femspace import triangle_reference_rule
from workloads import case_key, structured_grid

# Runs in a fresh interpreter; prints the monotonic clock (shared by all
# processes) once the imports and exact fields are done.
_SETUP_CODE = """\
import sys, time
from hdgplate import assembly, mesh, solver, verification
for t in sys.argv[1:]:
    verification.exact_fields(assembly.PlateMaterial(t=float(t)))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def setup_seconds(workload, src: str) -> float:
    """Process start through the hdgplate imports and ``exact_fields``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE,
         *(repr(t) for t in workload.thicknesses)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - t0


def exact_fields(workload, tracer):
    exact = {}
    for t in workload.thicknesses:
        with tracer.span("verification.exact_fields"):
            exact[t] = vf.exact_fields(PlateMaterial(t=t))
    return exact


def run_pass(workload, seed: int, exact: dict, tracer) -> list[dict]:
    """Solve every case once; returns one record per case."""
    spaces = SpaceConfig(k=workload.k)
    records = []
    for n in workload.levels:
        points, loops = structured_grid(workload.kind, n, seed)
        tracer.case = f"{workload.kind}-n{n}"
        mesh, mesh_error = None, None
        t0 = tracer.now()
        try:
            with tracer.span("bench.mesh"), tracer.span("mesh.Mesh"):
                mesh = mesh_mod.Mesh(points, loops)
        except Exception:
            mesh_error = traceback.format_exc(limit=3)
        mesh_s = tracer.now() - t0
        if mesh is not None and tracer.traced:
            tracer.count("mesh.elements", mesh.num_elements)
            tracer.count("mesh.edges", mesh.num_edges)

        for t in workload.thicknesses:
            key = case_key(workload.kind, n, workload.k, t)
            tracer.case = key
            rec = {"case": key, "n": n, "t": t, "mesh_s": mesh_s}
            mesh_s = 0.0  # a shared mesh is charged to its first case
            records.append(rec)
            if mesh is None:
                rec["error"] = f"mesh build failed: {mesh_error}"
                continue
            try:
                with tracer.span("bench.case"):
                    t0 = tracer.now()
                    with tracer.span("verification.solve_plate"):
                        fields = vf.solve_plate(mesh, spaces,
                                                exact[t].material, exact[t])
                    t1 = tracer.now()
                    with tracer.span("verification.table_errors"):
                        errors = vf.table_errors(fields, exact[t])
                    t2 = tracer.now()
            except Exception:
                rec["error"] = traceback.format_exc(limit=3)
                continue
            if tracer.traced:
                with tracer.paused():
                    tracer.count("verification.quad_points",
                                 quad_points(mesh))
            rec.update(
                solve_s=t1 - t0, errors_s=t2 - t1,
                iterations=fields.reports["step2"].iterations,
                errors=[float(e) for e in errors],
                converged={s: r.converged for s, r in fields.reports.items()},
                residuals=dict(tracer.residuals[key]))
            del fields
    return records


def quad_points(mesh) -> int:
    """Points of the default ``table_errors`` volume rule on ``mesh``:
    one fan triangle per edge of each non-triangular element."""
    degree = inspect.signature(vf.table_errors).parameters["quad_degree"]
    nref = len(triangle_reference_rule(degree.default)[1])
    return nref * sum(1 if len(el.vertex_loop) == 3 else len(el.vertex_loop)
                      for el in mesh.elements)


def gate_pass(workload, records: list[dict], exact: dict,
              references: dict) -> tuple[dict, list]:
    """Apply the correctness gate.

    Returns ``{case: [problems]}`` for the failing cases and the rate
    tables, one per thickness, built from the cases that solved.
    """
    failures = {}
    for rec in records:
        problems = gate.case_problems(rec, references)
        if problems:
            failures[rec["case"]] = problems
    tables = []
    for t in workload.thicknesses:
        table = vf.RateTable(workload.kind, SpaceConfig(k=workload.k),
                             exact[t].material)
        table.reports = [vf.ErrorReport(r["n"], r["iterations"], *r["errors"])
                         for r in records if r["t"] == t and "error" not in r]
        tables.append(table)
        last = [r for r in records if r["t"] == t][-1]
        if workload.rate_bands:
            problems = gate.rate_problems(table.final_rates())
            if problems:
                failures.setdefault(last["case"], []).extend(problems)
    return failures, tables
