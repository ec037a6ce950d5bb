"""Replay timings of single layers, run after the traced passes with no
wrappers installed.

* Scalar mul, add and inverse at conductors 1, 3 and 12, on operands sampled
  during the traced passes.  A workload that never performs an operation at a
  conductor (plane_ladder has only conductor 1) replays fixed operands instead:
  elements of Q(zeta_N) with coefficients in {-1, 0, 1}.
* ``rref`` on the largest input captured in the traced passes.
* ``bialgebra_from_json`` on the dense JSON document of ``poly_plane`` at d=28.
"""
from __future__ import annotations

import json
import random
import statistics
import time

from braidpbw import corpus, linalg, serialize
from braidpbw.scalars import Scalar, euler_phi

SCALAR_CASES = (
    ("scalars.mul_ns.N1", "mul", 1),
    ("scalars.mul_ns.N3", "mul", 3),
    ("scalars.mul_ns.N12", "mul", 12),
    ("scalars.add_ns.N12", "add", 12),
    ("scalars.inverse_ns.N12", "inverse", 12),
)
SCALAR_FUNCS = {"mul": Scalar.__mul__, "add": Scalar.__add__, "inverse": Scalar.inverse}
FALLBACK_SIZE = 64
D28_TRUNCATION = 6  # poly_plane at T=6 has d=28
REPEATS = 7
MIN_BATCH_S = 0.005


def fallback_operands(op: str, n: int) -> list[tuple]:
    rng = random.Random(n)

    def element() -> Scalar:
        while True:
            if n == 1:
                value = Scalar.from_rational(rng.randint(-9, 9))
            else:
                value = Scalar.from_poly(n, [rng.choice((-1, 0, 1)) for _ in range(euler_phi(n))])
            if not value.is_zero():
                return value

    arity = 1 if op == "inverse" else 2
    return [tuple(element() for _ in range(arity)) for _ in range(FALLBACK_SIZE)]


def per_item_seconds(fn, items: list[tuple]) -> float:
    """Median over repeats of one batch, divided by the operations in it."""
    start = time.perf_counter()
    for item in items:
        fn(*item)
    first = max(time.perf_counter() - start, 1e-9)
    loops = max(1, int(MIN_BATCH_S / first))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            for item in items:
                fn(*item)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / (loops * len(items))


def median_seconds(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def replays(tracer) -> dict:
    values: dict = {}
    sources: dict[str, str] = {}
    for metric, op, n in SCALAR_CASES:
        sample = tracer.samples.get((op, n))
        if sample and sample.items:
            items, sources[metric] = sample.items, "captured"
        else:
            items, sources[metric] = fallback_operands(op, n), "fallback"
        values[metric] = per_item_seconds(SCALAR_FUNCS[op], items) * 1e9

    rows = tracer.largest_rref[1]
    values["linalg.rref.largest_s"] = median_seconds(lambda: linalg.rref(rows), 3)
    values["linalg.rref.largest_cells"] = tracer.largest_rref[0]

    text = serialize.dumps_canonical(serialize.bialgebra_to_json(corpus.poly_plane(D28_TRUNCATION)))
    doc = json.loads(text)
    values["serialize.bialgebra_from_json.d28_s"] = median_seconds(
        lambda: serialize.bialgebra_from_json(doc), 2)
    values["serialize.d28_document_bytes"] = len(text.encode("utf-8"))
    values["replay_operands"] = sources
    return values
