"""The benchmark's three workloads: inputs, operations and output checks.

Every operation goes through the public functions of the engine, called as
module attributes (``pipeline.run_pipeline``, ``cli.main``) so that the
traced run sees the same calls through its wrappers.  Inputs never depend on
the seed; the seed only shuffles the order of operations within a pass.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import os
from dataclasses import dataclass
from typing import Callable

from braidpbw import cli, corpus, filtration, pipeline, serialize
from braidpbw.braided_space import FiniteAbelianGroup
from braidpbw.scalars import ONE, root_of_unity

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

# Sizes are chosen so that one pass takes about half a second, and a run of
# 35 s holds the 40 passes that put pass_s.tail at the 75th percentile.
# Truncation of the corpus entries that take one (the other entries have a
# fixed size); the built-in corpus uses 6, which makes one pass take ~40 s.
CORPUS_TRUNCATION = 1
# Expectations that depend on the truncation; the reference digest of the
# whole report covers them instead.
TRUNCATION_DEPENDENT = ("r_dim", "pbw_dims")
PLANE_TRUNCATIONS = (1, 2, 3)
CYCLOTOMIC_TRUNCATION = 2
CYCLOTOMIC_CONDUCTORS = (3, 4, 12)


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    # returns None when the output is right, else a description of the mismatch
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    setup: Callable[[str], list[Operation]]
    largest: str  # name of the operation on the workload's largest input


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _digest_check(expected: str | None, digest: str) -> str | None:
    if expected is None:
        return "no reference digest recorded"
    return None if digest == expected else f"report digest {digest[:12]} != reference {expected[:12]}"


# ---------------------------------------------------------------------------
# corpus_files: the nine corpus entries, exported to JSON, run through the CLI
# ---------------------------------------------------------------------------

def corpus_documents(truncation: int) -> list[dict]:
    """The corpus entries as the documents ``corpus --write-dir`` writes,
    with every entry that takes a truncation built at ``truncation``."""
    docs = []
    for entry in corpus.corpus_entries():
        expect = dict(entry.expect)
        build, sub, degree = entry.build, entry.sub_indices, entry.degree
        if "truncation" in inspect.signature(build).parameters:
            h = build(truncation)
            degree = truncation
            if entry.name == "solvable_pair_yline":
                sub = tuple(sorted(corpus.solvable_pair_y_indices(truncation)))
            for key in TRUNCATION_DEPENDENT:
                expect.pop(key, None)
        else:
            h = build()
        doc = {"name": entry.name, "bialgebra": serialize.bialgebra_to_json(h),
               "sub": None, "degree": degree, "expect": expect}
        if sub is not None:
            doc["sub"] = serialize.subspace_to_json(filtration.subspace_from_indices(h, sub))
        docs.append(doc)
    return docs


def setup_corpus_files(work_dir: str) -> list[Operation]:
    refs = load_references().get("corpus_files", {})
    ops = []
    for doc in corpus_documents(CORPUS_TRUNCATION):
        name = doc["name"]
        entry_dir = os.path.join(work_dir, "corpus", name)
        os.makedirs(entry_dir, exist_ok=True)
        with open(os.path.join(entry_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps_canonical(doc))
        report = os.path.join(work_dir, "reports", f"{name}.json")
        os.makedirs(os.path.dirname(report), exist_ok=True)

        def run(entry_dir=entry_dir, report=report):
            if os.path.exists(report):
                os.remove(report)
            return cli.main(["corpus", "--dir", entry_dir, "--report", report])

        def check(code, report=report, expected=refs.get(name)):
            if code != 0:
                return f"exit code {code}"
            with open(report, encoding="utf-8") as fh:
                return _digest_check(expected, sha256_text(fh.read()))

        ops.append(Operation(name, run, check))
    return ops


# ---------------------------------------------------------------------------
# plane_ladder: run_pipeline in memory on poly_plane at growing truncation
# ---------------------------------------------------------------------------

def setup_plane_ladder(work_dir: str) -> list[Operation]:
    refs = load_references().get("plane_ladder", {})
    ops = []
    for t in PLANE_TRUNCATIONS:
        name = f"poly_plane_T{t}"
        h = corpus.poly_plane(t)
        k = filtration.subspace_from_indices(h, (0,))

        def run(h=h, k=k, t=t):
            return pipeline.run_pipeline(h, k, t)

        def check(report, expected=refs.get(name)):
            return _digest_check(expected, sha256_text(serialize.dumps_canonical(report)))

        ops.append(Operation(name, run, check))
    return ops


# ---------------------------------------------------------------------------
# cyclotomic: taft3 and quantum planes over Q(zeta_N), checked by closed forms
# ---------------------------------------------------------------------------

def quantum_plane(n: int, truncation: int):
    """x, y primitive with yx = zeta_N xy: the braided symmetric algebra of a
    diagonal braiding whose scalars lie in conductor N."""
    zeta = root_of_unity(n)
    return corpus.primitively_generated(
        ["x", "y"], FiniteAbelianGroup((n, n)), ((ONE, zeta), (zeta.inverse(), ONE)),
        [(1, 0), (0, 1)], truncation)


def _check_quantum_plane(report, degree: int) -> str | None:
    got = (report["pbw"]["verdict"], report["R"]["c_r_symmetric"], report["pbw"]["dims"])
    want = ("PBW_TYPE_TRUE", True, [[n + 1, n + 1] for n in range(degree + 1)])
    return None if got == want else f"got {got!r}, expected {want!r}"


def _check_taft3(report) -> str | None:
    pbw = report["pbw"]
    got = (pbw["verdict"], pbw["first_failure_degree"], pbw["dims"][2] if len(pbw["dims"]) > 2 else None)
    want = ("PBW_TYPE_FALSE", 2, [1, 0])
    return None if got == want else f"got {got!r}, expected {want!r}"


def setup_cyclotomic(work_dir: str) -> list[Operation]:
    h = corpus.taft3()
    k = filtration.subspace_from_indices(h, (0, 1, 2))
    ops = [Operation("taft3", lambda h=h, k=k: pipeline.run_pipeline(h, k, 3), _check_taft3)]
    t = CYCLOTOMIC_TRUNCATION
    for n in CYCLOTOMIC_CONDUCTORS:
        h = quantum_plane(n, t)
        k = filtration.subspace_from_indices(h, (0,))
        ops.append(Operation(f"quantum_plane_N{n}",
                             lambda h=h, k=k: pipeline.run_pipeline(h, k, t),
                             lambda report: _check_quantum_plane(report, t)))
    return ops


WORKLOADS = {
    "corpus_files": Workload("corpus_files", setup_corpus_files, "taft3"),
    "plane_ladder": Workload("plane_ladder", setup_plane_ladder, f"poly_plane_T{PLANE_TRUNCATIONS[-1]}"),
    "cyclotomic": Workload("cyclotomic", setup_cyclotomic, "taft3"),  # d=9; the planes have d=6
}
