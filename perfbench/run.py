"""Run one hdgplate benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload tri-study --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one traced and then one untraced pass and reports
the per-layer metrics, including the tracing overhead.  Every run checks
every case (see ``gate.py``) and writes its records, the environment and
the study CSV under ``--out`` (default ``.perfbench_out``); a traced run
also writes its spans and a per-layer summary there.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
STAGES = ("step1", "step2", "step3")

END_TO_END = {
    "setup_s": "s", "study_s": "s", "solve_s": "s", "errors_s": "s",
    "peak_rss_mb": "MB", "outer_iters": "count",
}

PER_LAYER = {
    "mesh.Mesh.s": "s", "mesh.elements": "count", "mesh.edges": "count",
    **{f"assembly.assemble_{s}.s": "s" for s in STAGES},
    "assembly.recover_gamma.s": "s",
    "assembly.element_batches.s": "s",
    "assembly.element_batches.calls": "count",
    **{f"assembly.n_interior.{s}": "count" for s in STAGES},
    **{f"assembly.n_trace.{s}": "count" for s in STAGES},
    **{f"solver.condense.{s}.s": "s" for s in STAGES},
    "solver.lu_factor.calls": "count",
    **{f"solver.trace_solve.{s}.s": "s" for s in STAGES},
    "solver.splu.s": "s", "solver.splu.calls": "count",
    "solver.splu.fill": "count", "solver.lu_solve.calls": "count",
    **{f"solver.S_nnz.{s}": "count" for s in STAGES},
    "solver.outer_iters.step2": "count",
    **{f"solver.back_substitute.{s}.s": "s" for s in STAGES},
    **{f"solver.full_residual.{s}": "rel" for s in STAGES},
    "verification.exact_fields.s": "s",
    "verification.table_errors.s": "s",
    "verification.quad_points": "count",
    "verification.solve_plate.self_s": "s",
    **{f"self.{layer}.s": "s"
       for layer in ("mesh", "assembly", "solver", "verification", "bench")},
    "trace.study_s": "s", "trace.untraced_study_s": "s",
    "trace.overhead_s": "s",
}

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap BLAS pools at HDG_THREADS, else at nproc; call before numpy loads."""
    cap = os.environ.get("HDG_THREADS", "")
    if not cap or cap == "0":
        cap = str(len(os.sched_getaffinity(0)))
    for var in _THREAD_VARS:
        os.environ.setdefault(var, cap)


def environment() -> dict:
    import ctypes
    import numpy
    import scipy

    threads = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("openblas_get_num_threads",
                        "scipy_openblas_get_num_threads",
                        "scipy_openblas_get_num_threads64_"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[lib.name] = fn()
                    break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        revision = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except OSError:
        revision = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "HDG_THREADS": os.environ.get("HDG_THREADS"),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_revision": revision,
    }


def study_seconds(tracer) -> float:
    """Sum of the benchmark's own case spans: mesh builds, solves, errors."""
    return sum(s["end"] - s["start"] for s in tracer.spans
               if s["name"] in ("bench.mesh", "bench.case"))


def pass_metrics(records: list[dict], tracer) -> dict:
    solved = [r for r in records if "error" not in r]
    return {
        "study_s": study_seconds(tracer),
        "solve_s": sum(r["solve_s"] for r in solved),
        "errors_s": sum(r["errors_s"] for r in solved),
        "outer_iters": sum(r["iterations"] for r in solved),
    }


def layer_metrics(tracer, untraced_study_s: float) -> dict:
    inclusive, layer_self = tracer.totals()
    own = tracer.self_times()
    counts: dict = {}
    for per_case in tracer.counts.values():
        for name, value in per_case.items():
            counts[name] = counts.get(name, 0) + value
    out = {}
    for name in PER_LAYER:
        if name.endswith(".s"):
            out[name] = inclusive.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    for s in STAGES:
        out[f"solver.full_residual.{s}"] = max(
            (r[s] for r in tracer.residuals.values() if s in r), default=0.0)
    out["verification.solve_plate.self_s"] = sum(
        own[s["id"]] for s in tracer.spans
        if s["name"] == "verification.solve_plate")
    for layer, value in layer_self.items():
        out[f"self.{layer}.s"] = value
    traced = study_seconds(tracer)
    out["trace.study_s"] = traced
    out["trace.untraced_study_s"] = untraced_study_s
    out["trace.overhead_s"] = traced - untraced_study_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring budget: whole passes are repeated "
                             "while the next one fits (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out")
    args = parser.parse_args(argv)

    if not (SRC / "hdgplate" / "__init__.py").is_file():
        print(f"perfbench: no hdgplate sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import gate
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), gate.load_references(), Path(args.out))
    print_result(result)
    return 0


def run(workload, seed: int, seconds: float, traced: bool,
        references: dict, out: Path, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Measure one workload, gate every case and write the run's files."""
    import resource

    import study
    from tracing import Tracer

    setup = [study.setup_seconds(workload, str(SRC))
             for _ in range(setup_samples)]
    layer_tracer = Tracer(traced=True)
    exact = study.exact_fields(workload, layer_tracer)

    passes = []          # (records, tracer) per pass
    if traced:
        # the traced pass runs first, so any warm-up cost lands on it and
        # the reported overhead is an upper estimate
        with layer_tracer:
            passes.append((study.run_pass(workload, seed, exact,
                                          layer_tracer), layer_tracer))
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        with Tracer(traced=False) as tracer:
            passes.append((study.run_pass(workload, seed, exact, tracer),
                           tracer))
        now = time.monotonic()
        if traced or now - start + (now - t0) > seconds:
            break
    per_pass = [pass_metrics(recs, tr) for recs, tr in passes
                if not tr.traced]
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    failures, tables = [], None
    for index, (recs, _) in enumerate(passes):
        bad, pass_tables = study.gate_pass(workload, recs, exact, references)
        failures += [{"pass": index, "case": case, "problems": problems}
                     for case, problems in bad.items()]
        tables = tables or pass_tables
    result = {
        "workload": workload.name, "seed": seed, "traced": traced,
        "passes": len(passes), "setup_samples": setup, "metrics": metrics,
        "cases": [rec for recs, _ in passes for rec in recs],
        "failures": failures, "environment": environment(),
    }

    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    with open(out / f"{stem}.csv", "w") as fh:
        for table in tables:
            table.write_csv(fh)
    if traced:
        result["layers"] = layer_metrics(layer_tracer, metrics["study_s"])
        with open(out / f"{stem}.spans.json", "w") as fh:
            json.dump({"workload": workload.name, "seed": seed,
                       "spans": layer_tracer.spans,
                       "counts": layer_tracer.counts,
                       "residuals": layer_tracer.residuals}, fh)
        with open(out / f"{stem}.summary.json", "w") as fh:
            json.dump(summary(result), fh, indent=2)
    with open(out / f"{stem}-trace{int(traced)}.json", "w") as fh:
        json.dump(result, fh, indent=2)
    return result


def summary(result: dict) -> dict:
    layers = result["layers"]
    return {
        "workload": result["workload"], "seed": result["seed"],
        "self_s": {name[len("self."):-len(".s")]: value
                   for name, value in layers.items()
                   if name.startswith("self.")},
        "study_s": layers["trace.study_s"],
        "untraced_study_s": layers["trace.untraced_study_s"],
        "overhead_s": layers["trace.overhead_s"],
        "per_layer": layers,
        "environment": result["environment"],
    }


def print_result(result: dict) -> None:
    if result["traced"]:
        values, units = result["layers"], PER_LAYER
    else:
        values, units = result["metrics"], END_TO_END
    for f in result["failures"]:
        for problem in f["problems"]:
            print(f"FAIL pass {f['pass']} {f['case']}: {problem}",
                  file=sys.stderr)
    failed = len(result["failures"])
    print(f"{result['workload']} seed {result['seed']}: "
          f"{len(result['cases'])} cases, {failed} failed_cases")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["cases"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
