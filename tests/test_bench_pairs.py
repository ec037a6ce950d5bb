"""The pair runner's summary, on fixed numbers; no benchmark is run."""
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_of_hand_made_pairs():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.5, 10.0, 12.0, 13.0]
    record = bench_pairs.metric_record(parent, change)
    assert record["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert record["change"] == {"q1": 10.0, "median": 12.0, "q3": 12.5}
    assert record["parent_runs"] == parent and record["change_runs"] == change
    assert bench_pairs.summary(record) == {
        "parent_median": 12.0, "change_median": 12.0, "median_change_ratio": 0.0,
        # a tie is not lower; pair 1 is higher
        "change_lower_in_pairs": 4, "parent_iqr_ratio": round(2.0 / 12.0, 4)}
    faster = bench_pairs.summary(bench_pairs.metric_record(parent, [p * 0.9 for p in parent]))
    assert faster["median_change_ratio"] == -0.1 and faster["change_lower_in_pairs"] == 5


def test_summary_reproduces_a_recorded_benchmark():
    """BENCH_29.json's summary block, from its per-pair values alone."""
    with open(os.path.join(ROOT, "BENCH_29.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for workload, data in doc["workloads"].items():
        for name, metric in data["metrics"].items():
            record = bench_pairs.metric_record(metric["parent_runs"], metric["change_runs"])
            assert bench_pairs.summary(record) == doc["summary"][workload][name], (workload, name)


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.metric_record([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        bench_pairs.metric_record([1.0], [1.0])
