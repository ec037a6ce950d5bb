#!/usr/bin/env python3
"""Run the benchmark in two source trees, alternately, and summarise the pairs.

Usage:
    python scripts/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --workload plane_ladder [--workload cyclotomic ...] --pairs 10 \\
        --seconds 35 --out BENCH.json

Each tree is a source checkout with ``perfbench/run.py``.  Pair i runs the
parent first when i is even and the change first when i is odd, both with
seed ``FIRST_SEED + i``; the workloads are run one after the other, in
the order given.  The output holds, for each workload and end-to-end
metric, every run's value pair by pair, the quartiles of each side and a
``summary`` block: the two medians, the relative change of the median,
the number of pairs in which the change is lower, and the parent's
interquartile range relative to its median.  A ``verdicts`` block applies
the acceptance rules to each metric, with the metric's bound read from the
parent tree's ``BENCHMARK.json``: the gain rule (the change is lower in at
least nine tenths of the pairs, and its median falls by more than the
parent's interquartile range) and the bound rule (the change's median is
worse than the parent's by at most the bound, relative).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

FIRST_SEED = 901


def quartiles(values: list[float]) -> dict:
    """q1, median and q3, by the inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def metric_record(parent_runs: list[float], change_runs: list[float]) -> dict:
    """The full record of one metric over pairs: parent_runs[i] and
    change_runs[i] are the values of pair i."""
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError("need two or more pairs, one parent and one change value each")
    parent, change = quartiles(parent_runs), quartiles(change_runs)
    return {
        "parent": parent,
        "change": change,
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent_runs, change_runs)),
        "median_change_ratio": change["median"] / parent["median"] - 1,
        "parent_iqr": parent["q3"] - parent["q1"],
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
    }


def summary(record: dict) -> dict:
    """The summary fields of one metric record, ratios rounded to 4 places."""
    median = record["parent"]["median"]
    return {
        "parent_median": median,
        "change_median": record["change"]["median"],
        "median_change_ratio": round(record["median_change_ratio"], 4),
        "change_lower_in_pairs": record["change_lower_in_pairs"],
        "parent_iqr_ratio": round(record["parent_iqr"] / median, 4),
    }


def end_to_end_bounds(path: str) -> dict[str, float]:
    """The relative bound of each end-to-end metric in a BENCHMARK.json;
    every one of them is better when lower."""
    with open(path, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    if any(m["better"] != "lower" for m in metrics):
        raise ValueError("an end-to-end metric is not better when lower")
    return {m["name"]: m["bound"] for m in metrics}


def verdicts(record: dict, bound: float) -> dict:
    """The acceptance rules on one metric record: ``gain``, the change is
    lower in at least nine tenths of the pairs and its median falls by more
    than the parent's IQR; ``within_bound``, its median is above the
    parent's by at most ``bound``, relative."""
    pairs = len(record["parent_runs"])
    fall = record["parent"]["median"] - record["change"]["median"]
    return {
        "gain": 10 * record["change_lower_in_pairs"] >= 9 * pairs and fall > record["parent_iqr"],
        "within_bound": record["median_change_ratio"] <= bound,
    }


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a tree: the last line of its output."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: run failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(trees: dict, workload: str, pairs: int, seconds: float) -> dict:
    seeds = [FIRST_SEED + i for i in range(pairs)]
    runs: dict = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
            metrics = runs[side][-1]["metrics"]
            print(f"{workload} pair {i} {side}: "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in metrics.items()),
                  file=sys.stderr, flush=True)
    names = list(runs["parent"][0]["metrics"])
    metrics = {}
    for name in names:
        record = metric_record([r["metrics"][name]["value"] for r in runs["parent"]],
                               [r["metrics"][name]["value"] for r in runs["change"]])
        metrics[name] = {"unit": runs["parent"][0]["metrics"][name]["unit"], **record}
    return {
        "pairs": pairs,
        "seeds": seeds,
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
        "metrics": metrics,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="source tree of the parent commit")
    p.add_argument("--change", required=True, help="source tree of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bounds = end_to_end_bounds(os.path.join(trees["parent"], "BENCHMARK.json"))
    workloads = {w: run_workload(trees, w, args.pairs, args.seconds)
                 for w in args.workload}
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0 (untraced; values in host-normalised reference seconds)",
        "host": f"{os.cpu_count()}-core {platform.machine()}, Python "
                f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1; "
                "the runs of one pair go one after the other",
        "order": "pair i runs the parent first when i is even, the change first when i is odd; "
                 f"workloads in the order {', '.join(args.workload)}",
        "seeds": f"{FIRST_SEED}..{FIRST_SEED + args.pairs - 1} for pairs "
                 f"0-{args.pairs - 1}, one per pair",
        "summary": {w: {name: summary(m) for name, m in data["metrics"].items()}
                    for w, data in workloads.items()},
        "verdicts": {w: {name: verdicts(m, bounds[name]) for name, m in data["metrics"].items()}
                     for w, data in workloads.items()},
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
