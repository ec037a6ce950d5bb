"""Benchmark of the braidpbw engine, timed from outside through its public API.

    python3 perfbench/run.py --workload plane_ladder --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the engine is imported from ``src/``.
Workloads (closed loop, one process, one thread) are defined in
``workloads.py``.  The seed shuffles the order of operations within each pass;
the inputs never change.  Every operation's output is checked against a
reference digest or a closed form; a mismatch, an exception or a non-zero exit
counts as a failed operation.  Times are in reference seconds, corrected for
the host's drifting speed as described in ``hostspeed.py``.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics of the traced passes plus replay timings of single layers, and writes
the spans to ``.perfbench_work/``.  The metric names and units printed are the
ones listed in ``BENCHMARK.json``; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Each run also
writes its full record (environment, percentiles, extra per-layer figures) to
``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 9
# an untraced run measures at least this many passes, even past --seconds, so
# that pass_s.tail (ten samples beyond it) is at or above the 75th percentile
MIN_PASSES = 40


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one import and set-up, print the seconds")
    return p.parse_args(argv)


def import_engine() -> None:
    """Put the checkout's src/ first on the path; refuse any other braidpbw."""
    if not os.path.isfile(os.path.join(SRC, "braidpbw", "__init__.py")):
        sys.exit(f"perfbench: no engine sources at {SRC}")
    sys.path[:0] = [SRC, HERE]


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_probe(workload: str) -> None:
    from hostspeed import HostSpeed

    scratch = os.path.join(WORK, f"probe-{os.getpid()}")

    def setup():
        import workloads

        workloads.WORKLOADS[workload].setup(scratch)

    _, error, seconds, raw = HostSpeed().measure(setup)
    shutil.rmtree(scratch, ignore_errors=True)
    if error:
        raise error
    print(json.dumps([seconds, raw]))


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """Import plus input construction, each in a fresh interpreter:
    (reference seconds, raw seconds)."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []


@dataclass
class Pass:
    seconds: float = 0.0          # summed operation time, reference seconds
    largest_seconds: float = 0.0  # the largest operation, reference seconds
    raw_seconds: float = 0.0      # summed operation time, wall clock
    wall: float = 0.0             # the whole pass with calibrations and checks


def run_pass(ops, rng, speed, tally: Tally, largest: str, tracer=None) -> Pass:
    """One pass over all operations in a seeded order.  Checks run outside
    the timed region and with the tracer removed."""
    result = Pass()
    began = time.perf_counter()
    order = list(ops)
    rng.shuffle(order)
    if tracer:
        tracer.begin("bench.pass")
    for op in order:
        tally.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer:
                tracer.begin(f"bench.op:{op.name}")
            out, error, seconds, raw = speed.measure(op.run)
            if tracer:
                tracer.end()
                tracer.remove()
        result.seconds += seconds
        result.raw_seconds += raw
        if op.name == largest:
            result.largest_seconds = seconds
        if error is not None:
            problem = f"{type(error).__name__}: {error}"
        else:
            try:
                problem = op.check(out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            tally.failures.append(f"{op.name}: {problem}")
        if tracer:
            tracer.install()
    if tracer:
        tracer.end()
    result.wall = time.perf_counter() - began
    return result


def keep_going(started: float, seconds: float, walls: list[float]) -> bool:
    """Start another pass only if it is expected to end within the budget."""
    if not walls:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it: (value, percentile, n).
    Given MIN_PASSES samples or more, the percentile is at least the 75th."""
    xs = sorted(values)
    n = len(xs)
    k = n - 10  # 1-based rank of the highest sample with ten beyond it
    return xs[k - 1], 100.0 * k / n, n


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(workload, ops, args, speed, tally: Tally) -> tuple[dict, dict]:
    rng = random.Random(args.seed)
    run_pass(ops, rng, speed, tally, workload.largest)  # warm-up: caches, first-touch
    passes: list[Pass] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or keep_going(started, args.seconds, [p.wall for p in passes]):
        passes.append(run_pass(ops, rng, speed, tally, workload.largest))
    tail_value, tail_pct, n = tail([p.seconds for p in passes])
    values = {
        "pass_s.p50": statistics.median(p.seconds for p in passes),
        "pass_s.tail": tail_value,
        "largest_op_s.p50": statistics.median(p.largest_seconds for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"passes": n, "pass_s.tail.percentile": tail_pct,
             "pass_s": [p.seconds for p in passes],
             "pass_s.raw": [p.raw_seconds for p in passes],
             "largest_op_s": [p.largest_seconds for p in passes]}
    return values, extra


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced(workload, ops, args, speed, tally: Tally) -> tuple[dict, dict, object]:
    import replay
    from tracing import SPANNED, Tracer

    rng = random.Random(args.seed)
    run_pass(ops, rng, speed, tally, workload.largest)  # warm-up
    tracer = Tracer()
    plain, with_trace, per_pass = [], [], []
    started = time.perf_counter()
    while keep_going(started, args.seconds, [a.wall + b.wall for a, b in zip(plain, with_trace)]):
        plain.append(run_pass(ops, rng, speed, tally, workload.largest))
        tracer.reset_pass()
        tracer.install()
        try:
            with_trace.append(run_pass(ops, rng, speed, tally, workload.largest, tracer))
        finally:
            tracer.remove()
        per_pass.append(({k: list(v) for k, v in tracer.stats.items()}, dict(tracer.counts)))

    stats, counts = per_pass[0]
    values: dict[str, float] = {}
    for key in {k for k, _, _ in SPANNED}:
        values[f"{key}.calls"] = stats.get(key, [0])[0]
        values[f"{key}.total_s"] = statistics.median(s.get(key, [0, 0.0])[1] for s, _ in per_pass)
        values[f"{key}.self_s"] = statistics.median(s.get(key, [0, 0.0, 0.0])[2] for s, _ in per_pass)
    for key in ("scalars.mul", "scalars.mul_cyclotomic", "scalars.add", "scalars.inverse",
                "scalars.parse_scalar", "multilinear.slot_ops", "multilinear.mul_at",
                "multilinear.braid_at"):
        values[f"{key}.calls"] = counts.get(key, 0)
    for key in ("findim_hopf.checks", "findim_hopf.checks_skipped", "linalg.rref.cells",
                "serialize.input_bytes"):
        values[key] = counts.get(key, 0)
    rows = counts.get("linalg.rref.rows", 0)
    values["linalg.rref.rank_ratio"] = counts.get("linalg.rref.rank", 0) / rows if rows else 0.0
    values["trace.overhead_ratio"] = (statistics.median(p.seconds for p in with_trace)
                                      / statistics.median(p.seconds for p in plain))

    # counts must not depend on the pass (or on the seed, which only reorders)
    unstable = {k for _, c in per_pass[1:] for k in set(c) | set(counts)
                if c.get(k) != counts.get(k)}
    values.update(replay.replays(tracer))
    extra = {"traced_passes": len(with_trace),
             "pass_s.untraced": [p.seconds for p in plain],
             "pass_s.traced": [p.seconds for p in with_trace],
             "counts_differ_between_passes": sorted(unstable)}
    return values, extra, tracer


def write_spans(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans()}, fh)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def commit_id() -> str:
    """The checked-out commit, read from .git when the checkout has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def declared_metrics(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_engine()
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    load_start = os.getloadavg()
    import workloads
    from hostspeed import HostSpeed

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    setup_times = measure_setup(args.workload) if not args.trace else []
    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        ops = workload.setup(run_dir)
        tally = Tally()
        speed = HostSpeed()
        if args.trace:
            values, extra, tracer = traced(workload, ops, args, speed, tally)
            write_spans(tracer, os.path.join(results_dir, f"{tag}.spans.json"))
            wanted = declared_metrics("per_layer")
        else:
            values, extra = end_to_end(workload, ops, args, speed, tally)
            values["setup_s"] = statistics.median(seconds for seconds, _ in setup_times)
            extra["setup_s.raw"] = [raw for _, raw in setup_times]
            wanted = declared_metrics("end_to_end")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(tally.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit_id(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "fail_ratio": failed / tally.attempted, "failures": tally.failures[:20],
        "metrics": metrics, "all_values": values, "detail": extra,
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in tally.failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    info = {k: record[k] for k in ("seed", "commit", "python", "nproc",
                                   "loadavg_start", "loadavg_end", "fail_ratio")}
    if not args.trace:
        info["passes"] = extra["passes"]
        info["pass_s.tail.percentile"] = extra["pass_s.tail.percentile"]
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
