import importlib.util
import json
from pathlib import Path

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
