import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("text, seeds", [("81-84", [81, 82, 83, 84]),
                                         ("7", [7]), ("5,3,9", [5, 3, 9])])
def test_seed_list(text, seeds):
    assert bench_pairs.seed_list(text) == seeds


def test_summary_counts_pairs_and_inclusive_quartiles():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.0, 12.0, 10.0, 13.0]
    got = bench_pairs.summarize(parent, change)
    assert got["parent_median"] == 12.0 and got["change_median"] == 12.0
    assert got["change_vs_parent"] == 0.0
    # pairs (10, 9), (13, 10), (14, 13) lower; (11, 12) higher; one tie
    assert (got["change_lower_pairs"], got["change_higher_pairs"]) == (3, 1)
    assert got["parent_iqr"] == [11.0, 13.0]
    assert got["parent_iqr_pct"] == round(100 * 2 / 12, 2)
    assert got["change_range"] == [9.0, 13.0]
    assert got["parent_range"] == [10.0, 14.0]


def test_workloads_are_the_benchmarks():
    root = _PATH.parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    assert bench_pairs.workload_names(root) == [w["name"] for w in declared]


STAT_SAMPLE = """\
cpu  6655210 0 464191 14990906 503 0 7282 185264 0 0
cpu0 2344231 0 176084 8525520 408 0 5445 118661 0 0
cpu1 4310978 0 288107 6465385 94 0 1836 66602 0 0
intr 38130547 0 0 0
ctxt 15237719
"""


def test_steal_ticks_reads_the_aggregate_cpu_line():
    assert bench_pairs.steal_ticks(STAT_SAMPLE) == 185264
    # kernels before 2.6.11 write no steal column
    assert bench_pairs.steal_ticks("cpu  1 2 3 4 5 6 7\n") is None
    assert bench_pairs.steal_ticks("intr 1 2\n") is None


def test_workload_block_totals_failed_cases_per_side():
    def run(seed, failed, study_s):
        return {"seed": seed, "study_s": study_s, "attempted": 4,
                "failed": failed, "correct": 4 - failed,
                "steal_ticks": [10, 12]}

    runs = {"parent": [run(1, 0, 2.0), run(2, 1, 3.0)],
            "change": [run(1, 2, 1.0), run(2, 1, 2.0)]}
    got = bench_pairs.workload_block(runs, True)
    assert got["failed"] == {"parent": 1, "change": 3}
    assert got["pairs"] == 2 and got["csv_identical"]
    assert list(got["summary"]) == ["study_s"]
    assert got["summary"]["study_s"]["change_lower_pairs"] == 2


def test_run_side_keeps_the_setup_samples(monkeypatch, tmp_path):
    # run.py prints its metrics on its last line and writes the samples
    # behind setup_s's median to its -trace0.json record
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {"setup_s": {"value": 0.4, "unit": "s"},
                                   "study_s": {"value": 2.0, "unit": "s"}}})
    samples = [0.35, 0.5, 0.4, 0.38, 0.45]
    (tmp_path / "tri-study-seed3-trace0.json").write_text(
        json.dumps({"setup_samples": samples, "metrics": {}}))
    output = SimpleNamespace(returncode=0, stdout=f"tri-study\n{line}\n",
                             stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: output)
    got = bench_pairs.run_side(tmp_path, "tri-study", 3, tmp_path)
    assert got["setup_samples"] == samples
    assert (got["setup_s"], got["study_s"], got["attempted"]) == (0.4, 2.0, 3)
    # summarize reads the metrics only
    block = bench_pairs.workload_block({"parent": [got, got],
                                        "change": [got, got]}, True)
    assert list(block["summary"]) == ["setup_s", "study_s"]


@pytest.mark.parametrize("seeds", ["7", "7,7", "7-7"])
def test_fewer_than_two_distinct_seeds_run_nothing(seeds, monkeypatch,
                                                   tmp_path):
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *a, **k: calls.append(a))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--seeds", seeds, "--out", str(out)])
    assert exit_.value.code == 2
    assert calls == [] and not out.exists()


LOWER_IS_BETTER = {"bound": 0.25, "better": "lower"}


@pytest.mark.parametrize("parent, change, text, pairs", [
    # parent median 10, inclusive quartiles 9.5 and 10.5
    ([9.0, 9.5, 10.0, 10.5, 11.0], [12.6, 12.7, 12.8, 12.9, 13.0],
     "worse beyond the bound of 25%", (0, 5)),
    ([9.0, 9.5, 10.0, 10.5, 11.0], [10.6, 10.8, 11.0, 9.0, 11.5],
     "higher than the parent's IQR", (1, 4)),
    ([9.0, 9.5, 10.0, 10.5, 11.0], [9.0, 9.2, 9.4, 11.0, 8.0],
     "lower than the parent's IQR", (3, 1)),
    ([9.0, 9.5, 10.0, 10.5, 11.0], [9.8, 10.0, 10.2, 10.4, 9.6],
     "inside the parent's IQR", (2, 3)),
    # parent median 10, quartiles 8 and 12: an IQR 40% of the median
    ([6.0, 8.0, 10.0, 12.0, 14.0], [13.0, 13.5, 14.0, 14.5, 15.0],
     "unresolved: the parent's IQR is wider than the bound of 25%", (0, 5)),
    ([6.0, 8.0, 10.0, 12.0, 14.0], [4.0, 4.5, 5.0, 5.5, 5.9],
     "lower than the parent's IQR", (5, 0)),
    ([6.0, 8.0, 10.0, 12.0, 14.0], [14.5, 15.0, 15.5, 16.0, 16.5],
     "worse beyond the bound of 25%", (0, 5)),
], ids=["worse", "higher", "lower", "inside", "unresolved",
        "wide-but-all-below", "wide-but-all-above"])
def test_verdict_for_each_outcome(parent, change, text, pairs):
    got = bench_pairs.summarize(parent, change, LOWER_IS_BETTER)
    assert got["verdict"] == text
    assert (got["change_lower_pairs"], got["change_higher_pairs"]) == pairs


def test_verdict_reads_the_better_direction():
    # 30% lower is worse beyond the bound where higher is better; with no
    # declared metric only the IQR is read
    parent, change = [9.0, 9.5, 10.0, 10.5, 11.0], [7.0] * 5
    higher = bench_pairs.summarize(parent, change,
                                   {"bound": 0.25, "better": "higher"})
    assert higher["verdict"] == "worse beyond the bound of 25%"
    assert bench_pairs.summarize(parent, change)["verdict"] == \
        "lower than the parent's IQR"


def test_workload_block_writes_a_verdict_per_metric(monkeypatch):
    monkeypatch.setattr(bench_pairs, "declared_metrics",
                        lambda: {"study_s": LOWER_IS_BETTER})
    runs = {side: [{"seed": s, "study_s": v, "attempted": 1, "failed": 0,
                    "correct": 1, "steal_ticks": [0, 0]}
                   for s, v in enumerate(values)]
            for side, values in (("parent", [1.8, 2.0, 2.2]),
                                 ("change", [0.5, 1.0, 1.5]))}
    got = bench_pairs.workload_block(runs, True)["summary"]["study_s"]
    assert got["verdict"] == "lower than the parent's IQR"


def test_committed_pairs_flag_errors_outside_the_parents_iqr():
    # the stage-two block form's pairs: tri-study errors_s read a median
    # above the parent's third quartile
    root = _PATH.parent.parent
    bench = json.loads((root / "BENCH_block_form.json").read_text())
    runs = bench["workloads"]["tri-study"]["runs"]
    got = bench_pairs.workload_block(runs, True)["summary"]["errors_s"]
    assert got["verdict"] == "higher than the parent's IQR"
    assert (got["change_lower_pairs"], got["change_higher_pairs"]) == (4, 6)


STUDY_CSV = """\
k,mesh,n,t,iter,theta,rate
3,triangle,48,1e-06,21,6.8986553118e-09,
3,triangle,96,1e-06,22,4.3e-10,4.0012
"""


def test_identical_csvs_differ_nowhere():
    assert bench_pairs.csv_differences(STUDY_CSV, STUDY_CSV) == []


def test_csv_differences_name_each_cell():
    change = STUDY_CSV.replace("6.8986553118e-09", "6.8986553119e-09")
    assert bench_pairs.csv_differences(STUDY_CSV, change) == [
        {"row": 1, "column": "theta", "parent": "6.8986553118e-09",
         "change": "6.8986553119e-09"}]


def test_csv_differences_name_a_missing_row():
    short = "".join(STUDY_CSV.splitlines(keepends=True)[:2])
    assert bench_pairs.csv_differences(STUDY_CSV, short) == [
        {"row": 2, "column": None,
         "parent": ["3", "triangle", "96", "1e-06", "22", "4.3e-10", "4.0012"],
         "change": None}]
    assert bench_pairs.csv_differences(short, STUDY_CSV)[0]["parent"] is None


def test_workload_block_records_the_differing_seeds():
    runs = {side: [{"seed": 1, "study_s": 1.0, "attempted": 1, "failed": 0,
                    "correct": 1, "steal_ticks": [0, 0]}] * 2
            for side in ("parent", "change")}
    cells = [{"row": 1, "column": "theta", "parent": "1", "change": "2"}]
    got = bench_pairs.workload_block(runs, False,
                                     [{"seed": 1, "cells": cells}])
    assert not got["csv_identical"]
    assert got["csv_differences"] == [{"seed": 1, "cells": cells}]
    assert bench_pairs.workload_block(runs, True)["csv_differences"] == []


def test_main_records_each_differing_seed(monkeypatch, tmp_path):
    # two seeds, the change writing another error on seed 2 only
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **k:
                        SimpleNamespace(stdout=b"" if "archive" in cmd
                                        else "abc\n"))
    monkeypatch.setattr(bench_pairs, "workload_names", lambda tree: ["w"])
    monkeypatch.setattr(bench_pairs, "machine", lambda out: {})

    def run_side(tree, workload, seed, out):
        out.mkdir(parents=True, exist_ok=True)
        err = "2.0" if out.name == "change" and seed == 2 else "1.0"
        (out / f"{workload}-seed{seed}.csv").write_text(f"k,err\n1,{err}\n")
        return {"seed": seed, "study_s": 1.0, "attempted": 1, "failed": 0,
                "correct": True, "steal_ticks": [0, 0]}
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--seeds", "1,2", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["workloads"]["w"]
    assert not got["csv_identical"]
    assert got["csv_differences"] == [{"seed": 2, "cells": [
        {"row": 1, "column": "err", "parent": "1.0", "change": "2.0"}]}]



# a child process runs main with every outside call stubbed; its run_side
# signals the child itself, as a stop from outside would
_SIGNALLED = """
import importlib.util, os, sys
from types import SimpleNamespace
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
bench_pairs.subprocess.run = lambda cmd, **k: SimpleNamespace(
    stdout=b"" if "archive" in cmd else "abc\\n")
bench_pairs.workload_names = lambda tree: ["w"]
def run_side(tree, workload, seed, out):
    print(out.parent, flush=True)
    os.kill(os.getpid(), int(sys.argv[2]))
bench_pairs.run_side = run_side
bench_pairs.main(["--seeds", "1,2", "--out", sys.argv[3]])
"""


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "SIGINT"])
def test_a_signal_removes_the_temporary_copy(signum, tmp_path):
    # stopped by a signal, the run exits with 128 + signum, and its
    # temporary copy of the parent goes with it
    proc = subprocess.run(
        [sys.executable, "-c", _SIGNALLED, str(_PATH), str(int(signum)),
         str(tmp_path / "bench.json")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "TMPDIR": str(tmp_path)})
    copy = Path(proc.stdout.strip())
    assert copy.parent == tmp_path and copy.name.startswith("bench_pairs-")
    assert proc.returncode == 128 + signum, proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_the_signal_handlers_come_back(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **k:
                        SimpleNamespace(stdout=b"" if "archive" in cmd
                                        else "abc\n"))
    monkeypatch.setattr(bench_pairs, "workload_names", lambda tree: [])
    monkeypatch.setattr(bench_pairs, "machine", lambda out: {})
    stops = (signal.SIGTERM, signal.SIGINT)
    handlers = [signal.getsignal(s) for s in stops]
    assert bench_pairs.main(["--seeds", "1,2", "--out",
                             str(tmp_path / "bench.json")]) == 0
    assert [signal.getsignal(s) for s in stops] == handlers
