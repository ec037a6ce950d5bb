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


def _bench_33(workload, name):
    with open(os.path.join(ROOT, "BENCH_33.json"), encoding="utf-8") as fh:
        metric = json.load(fh)["workloads"][workload]["metrics"][name]
    return bench_pairs.metric_record(metric["parent_runs"], metric["change_runs"])


def test_verdicts_of_a_recorded_benchmark():
    """BENCH_33.json: plane_ladder pass_s.p50 fell 13.0% in 10 of 10 pairs,
    against a parent IQR of 0.8%; pass_s.tail fell 8.2% but in 8 of 10."""
    bounds = bench_pairs.end_to_end_bounds(os.path.join(ROOT, "BENCHMARK.json"))
    assert bounds["pass_s.p50"] == bounds["pass_s.tail"] == 0.12
    p50, tail = _bench_33("plane_ladder", "pass_s.p50"), _bench_33("plane_ladder", "pass_s.tail")
    assert p50["change_lower_in_pairs"] == 10 and tail["change_lower_in_pairs"] == 8
    assert bench_pairs.verdicts(p50, 0.12) == {"gain": True, "within_bound": True}
    assert bench_pairs.verdicts(tail, 0.12) == {"gain": False, "within_bound": True}


def test_verdicts_on_hand_made_pairs():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0, 10.0, 12.0, 11.0, 13.0, 14.0]
    # 9 of 10 lower, median falls 1.5 against a parent IQR of 2: no gain
    nine = [p - 1.5 for p in parent[:9]] + [parent[9] + 1]
    assert bench_pairs.verdicts(bench_pairs.metric_record(parent, nine), 0.12) == {
        "gain": False, "within_bound": True}
    # falls by 2.5, more than the IQR, in 9 of 10 pairs
    nine = [p - 2.5 for p in parent[:9]] + [parent[9] + 1]
    assert bench_pairs.verdicts(bench_pairs.metric_record(parent, nine), 0.12)["gain"]
    # 8 of 10 lower is not nine tenths, however far the median falls
    eight = [p - 5 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    assert not bench_pairs.verdicts(bench_pairs.metric_record(parent, eight), 0.12)["gain"]
    # the bound is on the median's relative rise: 11% passes, 13% does not
    for rise, ok in ((1.11, True), (1.13, False)):
        record = bench_pairs.metric_record(parent, [p * rise for p in parent])
        assert bench_pairs.verdicts(record, 0.12) == {"gain": False, "within_bound": ok}
