"""Run alternating benchmark pairs, a parent revision against the working tree.

From the repository root:

    python3 tools/bench_pairs.py --seeds 81-90 --out BENCH_name.json

For each workload the parent's ``perfbench/workloads.py`` defines and
each seed, ``perfbench/run.py --trace 0`` runs once, at the run length
``run.py`` sets, on a copy of the parent revision (``git archive``,
default ``HEAD``) and once on the working tree, the parent first on odd
seeds.  The BENCH file
holds every run, with the ``/proc/stat`` steal ticks read before and
after it, each metric's medians, quartiles, ranges and the pairs in
which the change reads lower and higher, a verdict per metric, each
side's total of failed cases, whether the two sides wrote byte-identical
study CSVs, and where not, each seed's differing cells with both values,
each run's ``setup_s`` samples, and the machine the runs saw; its
``claim`` and ``notes`` are left for the author to write, and may not
contradict a verdict.  Stopped by SIGTERM or SIGINT, it kills the running
child and removes its temporary copy of the parent before it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import platform
import runpy
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THP = Path("/sys/kernel/mm/transparent_hugepage/enabled")
STAT = Path("/proc/stat")
# what a run records besides its metrics
RUN_FIELDS = ("seed", "attempted", "failed", "correct", "steal_ticks",
              "setup_samples")


def seed_list(text: str) -> list[int]:
    """``"81-90"`` or ``"81,83,85"`` as a list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def workload_names(tree: Path) -> list[str]:
    """The workloads ``perfbench/workloads.py`` in ``tree`` defines."""
    return list(runpy.run_path(
        str(tree / "perfbench" / "workloads.py"))["WORKLOADS"])


def steal_ticks(text: str) -> int | None:
    """The steal ticks of the aggregate ``cpu`` line of ``/proc/stat``
    text, its eighth value; None where that line or value is missing."""
    for line in text.splitlines():
        fields = line.split()
        if fields[:1] == ["cpu"]:
            return int(fields[8]) if len(fields) > 8 else None
    return None


def read_steal() -> int | None:
    """The machine's steal ticks so far, or None where ``/proc/stat``
    cannot be read."""
    try:
        return steal_ticks(STAT.read_text())
    except OSError:
        return None


def run_side(tree: Path, workload: str, seed: int, out: Path) -> dict:
    """One untraced run of ``workload`` from ``tree``: its end-to-end
    metrics and case counts, as the run's last output line reports them,
    the steal ticks read before and after it, and the ``setup_s``
    samples whose median it reports, from the record it writes to
    ``out``."""
    before = read_steal()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--out", str(out)],
        cwd=tree, capture_output=True, text=True)
    after = read_steal()
    if proc.returncode:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (out / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"seed": seed,
            **{name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "steal_ticks": [before, after],
            "setup_samples": record["setup_samples"]}


def declared_metrics() -> dict:
    """``BENCHMARK.json``'s end-to-end metrics by name, each with its
    ``bound`` and ``better`` direction."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in declared["end_to_end"]}


def csv_differences(parent: str, change: str) -> list[dict]:
    """The cells in which two study CSVs differ, one ``{"row", "column",
    "parent", "change"}`` each: ``row`` counts the lines from 0, header
    included, and ``column`` is the first header's name for the cell.  A
    line only one side has is one entry with ``column`` None and that
    side's whole line, the other side's None."""
    sides = [list(csv.reader(io.StringIO(text))) for text in (parent, change)]
    header = sides[0][0] if sides[0] else []
    cells = []
    for row, lines in enumerate(itertools.zip_longest(*sides)):
        if None in lines:
            cells.append({"row": row, "column": None, "parent": lines[0],
                          "change": lines[1]})
            continue
        for col, (a, b) in enumerate(itertools.zip_longest(*lines)):
            if a != b:
                cells.append({"row": row,
                              "column": header[col] if col < len(header) else col,
                              "parent": a, "change": b})
    return cells


def workload_block(runs: dict, csv_identical: bool,
                   differences: list = ()) -> dict:
    """A workload's entry in the BENCH file from its ``runs`` per side:
    the summary and verdict of every metric, against
    :func:`declared_metrics`, each side's total of failed cases, and the
    ``{"seed", "cells"}`` of each seed whose study CSVs differ."""
    metrics = declared_metrics()
    parent, change = runs["parent"], runs["change"]
    return {
        "pairs": len(parent),
        "csv_identical": csv_identical,
        "csv_differences": list(differences),
        "failed": {side: sum(r["failed"] for r in runs[side])
                   for side in ("parent", "change")},
        "summary": {name: summarize([r[name] for r in parent],
                                    [r[name] for r in change],
                                    metrics.get(name))
                    for name in parent[0] if name not in RUN_FIELDS},
        "runs": runs,
    }


def summarize(parent: list[float], change: list[float],
              metric: dict | None = None) -> dict:
    """Medians, quartiles (inclusive method), ranges, the pair counts and
    a verdict on where the change's median lies against the declared
    ``metric`` (its relative ``bound`` and ``better`` direction).

    The verdict is "unresolved" where the parent's IQR is wider than the
    bound, unless every change run lies below every parent run or every
    one above; else "worse beyond the bound" where the change's median is
    worse than the parent's by more than the bound; else higher or lower
    than the parent's IQR, or inside it.  With no declared metric only
    the IQR is read."""
    def q(values):
        return statistics.quantiles(values, n=4, method="inclusive")

    pm, cm = statistics.median(parent), statistics.median(change)
    (p1, _, p3), (c1, _, c3) = q(parent), q(change)
    bound = metric["bound"] if metric and pm else None
    worse = pm - cm if metric and metric["better"] == "higher" else cm - pm
    apart = max(change) < min(parent) or min(change) > max(parent)
    if bound is not None and (p3 - p1) / abs(pm) > bound and not apart:
        verdict = ("unresolved: the parent's IQR is wider than the bound "
                   f"of {bound:.0%}")
    elif bound is not None and worse / abs(pm) > bound:
        verdict = f"worse beyond the bound of {bound:.0%}"
    elif cm > p3:
        verdict = "higher than the parent's IQR"
    elif cm < p1:
        verdict = "lower than the parent's IQR"
    else:
        verdict = "inside the parent's IQR"
    return {
        "parent_median": round(pm, 4), "change_median": round(cm, 4),
        "change_vs_parent": round((cm - pm) / pm, 4) if pm else None,
        "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
        "change_higher_pairs": sum(c > p for p, c in zip(parent, change)),
        "parent_iqr": [round(p1, 4), round(p3, 4)],
        "change_iqr": [round(c1, 4), round(c3, 4)],
        "parent_iqr_pct": round(100 * (p3 - p1) / pm, 2) if pm else None,
        "change_iqr_pct": round(100 * (c3 - c1) / cm, 2) if cm else None,
        "change_range": [round(min(change), 4), round(max(change), 4)],
        "parent_range": [round(min(parent), 4), round(max(parent), 4)],
        "verdict": verdict,
    }


def machine(out: Path) -> dict:
    """The environment a run recorded, with the C library and the
    transparent huge page mode."""
    record = json.loads(next(out.glob("*-trace0.json")).read_text())
    env = record["environment"]
    env.pop("git_revision", None)
    libc, version = platform.libc_ver()
    env["glibc"] = version if libc == "glibc" else None
    try:
        modes = THP.read_text().split()
        env["transparent_hugepage"] = next(
            (m.strip("[]") for m in modes if m.startswith("[")), None)
    except OSError:
        env["transparent_hugepage"] = None
    return env


@contextlib.contextmanager
def signals_exit():
    """SIGTERM and SIGINT raise ``SystemExit(128 + signum)`` inside the
    block, so that the block's ``TemporaryDirectory`` cleans up and
    ``subprocess.run`` kills its running child; the previous handlers come
    back after it."""
    def leave(signum, frame):
        raise SystemExit(128 + signum)

    stops = (signal.SIGTERM, signal.SIGINT)
    previous = [signal.signal(s, leave) for s in stops]
    try:
        yield
    finally:
        for s, handler in zip(stops, previous):
            signal.signal(s, handler)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help='"81-90" or "81,83,85"')
    parser.add_argument("--parent", default="HEAD",
                        help="the revision to compare against")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(set(args.seeds)) < 2:  # the quartiles need two runs per side
        parser.error("--seeds must name at least two distinct seeds")

    parent_rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                                check=True, capture_output=True,
                                text=True).stdout.strip()
    with signals_exit(), \
            tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        tmp = Path(tmp)
        parent_tree = tmp / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive,
                       check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        workloads = {}
        for workload in workload_names(parent_tree):
            runs = {"parent": [], "change": []}
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    runs[side].append(run_side(trees[side], workload, seed,
                                               tmp / side))
                    print(f"{workload} seed {seed} {side}: "
                          f"{runs[side][-1]}", file=sys.stderr, flush=True)
            differences = []
            for seed in args.seeds:
                csvs = [(tmp / side / f"{workload}-seed{seed}.csv").read_bytes()
                        for side in ("parent", "change")]
                if csvs[0] != csvs[1]:
                    differences.append({"seed": seed, "cells": csv_differences(
                        *(text.decode() for text in csvs))})
            workloads[workload] = workload_block(runs, not differences,
                                                 differences)
        env = machine(tmp / "change")

    seeds = args.seeds
    span = (f"{seeds[0]}-{seeds[-1]}"
            if seeds == list(range(seeds[0], seeds[-1] + 1))
            else ",".join(map(str, seeds)))
    bench = {
        "what": (f"{len(seeds)} alternating untraced parent/change pairs per "
                 f"workload on seeds {span} (odd seeds run "
                 "the parent first): python3 perfbench/run.py --workload W "
                 "--seed S --trace 0, the parent from a git archive copy, "
                 "the change from the working tree."),
        "claim": "",
        "notes": "",
        "revisions": {"parent": parent_rev,
                      "change": "the commit that adds this file (its parent "
                                "is the revision above)"},
        "machine": env,
        "seeds": seeds,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
