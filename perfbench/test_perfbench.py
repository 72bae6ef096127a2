"""Tests of the benchmark itself; run with ``python -m pytest perfbench``.

They use the small ``TINY`` workloads, so they check the plumbing (metric
names and units, the gate, seeding, attribute restoration), not speed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import study  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import TINY, WORKLOADS, case_key, structured_grid  # noqa: E402


def tiny_references(workload) -> dict:
    tracer = Tracer(traced=False)
    exact = study.exact_fields(workload, tracer)
    with tracer:
        records = study.run_pass(workload, 0, exact, tracer)
    return {r["case"]: r["errors"] for r in records}


@pytest.mark.parametrize("kind", ["triangle", "quadrilateral"])
def test_seed_zero_is_the_generator_order(kind):
    from hdgplate.mesh import generate_structured
    points, loops = structured_grid(kind, 3, seed=0)
    mesh = generate_structured(kind, 3)
    np.testing.assert_array_equal(points, mesh.points)
    assert loops == [el.vertex_loop for el in mesh.elements]


@pytest.mark.parametrize("kind", ["triangle", "quadrilateral"])
def test_seed_renumbers_the_same_grid(kind):
    base_points, base_loops = structured_grid(kind, 4, seed=0)
    points, loops = structured_grid(kind, 4, seed=9)
    assert points.tolist() != base_points.tolist()

    def cells(pts, lps):
        return sorted(tuple(map(tuple, pts[list(lp)].round(12).tolist()))
                      for lp in lps)

    assert cells(points, loops) == cells(base_points, base_loops)
    again_points, again_loops = structured_grid(kind, 4, seed=9)
    np.testing.assert_array_equal(points, again_points)
    assert loops == again_loops


def test_tracer_restores_module_attributes():
    import scipy.linalg
    import scipy.sparse.linalg
    from hdgplate import assembly, solver, verification

    owners = (assembly, solver, verification, scipy.linalg,
              scipy.sparse.linalg)
    before = [dict(vars(m)) for m in owners]
    with pytest.raises(RuntimeError):
        with Tracer(traced=True):
            assert solver.condense is not before[1]["condense"]
            raise RuntimeError("leave the block early")
    for module, saved in zip(owners, before):
        changed = [k for k, v in saved.items() if vars(module).get(k) is not v]
        assert changed == []


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_metric(name, traced, tmp_path, capsys):
    workload = TINY[name]
    refs = tiny_references(workload)
    result = run.run(workload, seed=7, seconds=0, traced=traced,
                     references=refs, out=tmp_path, setup_samples=1)
    run.print_result(result)
    line = json.loads(capsys.readouterr().out.splitlines()[-1])

    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(workload.cases()) * (2 if traced else 1)
    units = run.PER_LAYER if traced else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    for name_, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name_
        assert metric["value"] != 0, name_

    stem = f"{name}-seed7"
    assert (tmp_path / f"{stem}.csv").read_text().startswith("k,mesh_kind")
    assert (tmp_path / f"{stem}-trace{int(traced)}.json").exists()
    if traced:
        layers = result["layers"]
        self_total = sum(v for k, v in layers.items() if k.startswith("self."))
        assert self_total == pytest.approx(layers["trace.study_s"], rel=1e-9)
        spans = json.loads((tmp_path / f"{stem}.spans.json").read_text())
        assert {"name", "start", "end", "parent", "case"} <= set(
            spans["spans"][0])
        assert (tmp_path / f"{stem}.summary.json").exists()


def test_permuted_seed_passes_the_gate_on_recorded_references():
    workload = dataclasses.replace(WORKLOADS["tri-study"], levels=(8, 16))
    references = gate.load_references()
    tracer = Tracer(traced=False)
    exact = study.exact_fields(workload, tracer)
    iterations = []
    for _ in range(2):
        with Tracer(traced=False) as tracer:
            records = study.run_pass(workload, 11, exact, tracer)
        iterations.append([r["iterations"] for r in records])
        failures, _ = study.gate_pass(workload, records, exact, references)
        assert failures == {}
    assert iterations[0] == iterations[1]


def test_gate_rejects_bad_cases():
    case = {"case": "c", "errors": [1.0, 2.0, 3.0, 4.0],
            "converged": {s: True for s in gate.STAGES},
            "residuals": {s: 1e-13 for s in gate.STAGES}}
    refs = {"c": [1.0, 2.0, 3.0, 4.0]}
    assert gate.case_problems(case, refs) == []
    assert gate.case_problems(case, {"c": [1.0, 2.0, 3.0, 4.0001]})
    assert gate.case_problems(case, {})
    assert gate.case_problems({**case, "residuals": {"step1": 1e-13}}, refs)
    assert gate.case_problems(
        {**case, "converged": {**case["converged"], "step2": False}}, refs)
    assert gate.case_problems({"case": "c", "error": "boom"}, refs)
    assert gate.rate_problems((2.0, 1.0, 1.0, 2.0)) == []
    assert gate.rate_problems((1.8, 1.0, 1.0, 2.0))
    assert gate.rate_problems((2.0, 1.2, 1.0, 2.0))
    assert gate.rate_problems((None,) * 4)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(gate.load_references()) == {
        case_key(w.kind, n, w.k, t)
        for w in WORKLOADS.values() for n, t in w.cases()}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tri-study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
