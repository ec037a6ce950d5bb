"""Acceptance suite: one test per shipped criterion.

Each test prints a single PASS line on success; tolerances are exact
(zero) except for the two wall-clock budgets, which are asserted as
stated.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import hashlib
import random
import time
import zlib

import pytest

from braidpbw.braided_space import GenericBraiding, is_symmetric
from braidpbw.coinvariants import check_braiding_collapse, compute_R, is_central
from braidpbw.corpus import build_cached, solvable_pair
from braidpbw.filtration import (
    associated_graded,
    check_commutator_filtration,
    hopf_filtration,
    subspace_from_indices,
)
from braidpbw.findim_hopf import (
    check_commutator_coproduct_all,
    run_all_checks,
)
from braidpbw.multilinear import vec_equal
from braidpbw.pbw import PBW_TYPE_FALSE, PBW_TYPE_TRUE, pbw_verdict
from braidpbw.pipeline import run_pipeline
from braidpbw.scalars import MINUS_ONE, ONE, Scalar
from braidpbw.symmetric_algebra import normal_forms
from reference_checkers import (
    FreeAlgebra,
    check_square_commutator_expansion,
    lift,
    oracle_dimension,
    pair_ops,
    square_commutator_expansion_sides,
)

CONNECTED_SYMMETRIC = ("poly_line", "poly_plane", "solvable_pair", "super_line", "color_plane")
ALL_NAMES = ("kc2", "sweedler_h4", "taft3", "poly_line", "poly_plane",
             "solvable_pair", "super_line", "color_plane")


def _announce(name):
    print(f"ACCEPT {name}: PASS")


def test_axiom_suite_all_corpus_under_10s():
    t0 = time.monotonic()
    for name in ALL_NAMES:
        h = build_cached(name)
        for checker, report in run_all_checks(h).items():
            assert report.ok, f"{name}/{checker}:\n{report.summary()}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"axiom suite took {elapsed:.2f}s"
    _announce(f"axiom suite (exact, {elapsed:.2f}s < 10s)")


def test_commutator_coproduct_identity_all_basis_pairs():
    for name in ALL_NAMES:
        h = build_cached(name)
        report = check_commutator_coproduct_all(h)
        assert report.ok, f"{name}:\n{report.summary()}"
        assert report.checked > 0
    _announce("coproduct-of-commutator identity, exhaustive basis pairs")


def test_square_commutator_expansion_100_random_quadruples_and_mutation():
    # symmetric corpus braidings as free-algebra contexts
    contexts = {}
    for name in ("poly_plane", "super_line", "color_plane"):
        h = build_cached(name)
        gens = [i for i in range(h.dim) if h.degree(i) == 1]
        q = [[h.braiding.rows[a][b][(b, a)] for b in gens] for a in gens]
        contexts[name] = FreeAlgebra(GenericBraiding.diagonal(q))
    for name, alg in contexts.items():
        rng = random.Random(zlib.crc32(name.encode()))  # the same draw in every process
        for _ in range(100):
            elems = []
            for _k in range(4):
                deg = rng.randint(1, 2)
                word = tuple(rng.randrange(alg.dim) for _ in range(deg))
                elems.append(lift({word: Scalar.from_rational(rng.randint(1, 3))}))
            assert check_square_commutator_expansion(alg, *elems), name
    # finite-dimensional contexts too
    for name in ("kc2", "sweedler_h4", "taft3"):
        h = build_cached(name)
        rng = random.Random(7)
        for _ in range(100):
            elems = [lift({rng.randrange(h.dim): Scalar.from_rational(rng.randint(1, 3))})
                     for _ in range(4)]
            assert check_square_commutator_expansion(pair_ops(h), *elems), name
    # documented mutation: dropping the opposite-product term fails on odd letters
    super_alg = contexts["super_line"]
    th = lift({(1,): ONE})
    lhs, rhs = square_commutator_expansion_sides(super_alg, th, th, th, th,
                                                 drop_opposite_term=True)
    assert not vec_equal(lhs, rhs)
    _announce("tensor-square commutator expansion, 100 quadruples/braiding + mutation")


def test_commutator_filtration_and_commutative_gr_through_degree_6():
    for name in CONNECTED_SYMMETRIC:
        h = build_cached(name)
        assert is_symmetric(h.braiding), name
        ladder = hopf_filtration(h, subspace_from_indices(h, (0,)))
        assert len(ladder.steps) - 1 == 6, name
        report = check_commutator_filtration(ladder)
        assert report.ok, f"{name}:\n{report.summary()}"
        gr = associated_graded(ladder)
        assert is_central(gr, range(gr.dim)), name
    _announce("commutator filtration + commutative graded quotient, degree <= 6")


@pytest.mark.parametrize("name,dims", [
    ("poly_line", [1, 1, 1, 1, 1, 1, 1]),
    ("poly_plane", [1, 2, 3, 4, 5, 6, 7]),
    ("solvable_pair", [1, 2, 3, 4, 5, 6, 7]),
    ("super_line", [1, 2, 2, 2, 2, 2, 2]),
    ("color_plane", [1, 2, 3, 4, 5, 6, 7]),
])
def test_pbw_true_through_degree_6(name, dims):
    h = build_cached(name)
    gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, (0,))))
    report = pbw_verdict(gr, 6)
    assert report.verdict == PBW_TYPE_TRUE
    assert [t for t, s in report.degreewise_dims] == dims
    assert [s for t, s in report.degreewise_dims] == dims
    _announce(f"PBW verdict true through degree 6 for {name} (dims {dims})")


def test_monomial_count_matches_rank_oracle_through_degree_5():
    cases = {
        "super_line": [[ONE, ONE], [ONE, MINUS_ONE]],
        "exterior_pair": [[MINUS_ONE, ONE], [ONE, MINUS_ONE]],
        "color_plane": [[ONE, MINUS_ONE], [MINUS_ONE, ONE]],
        "poly_plane": [[ONE, ONE], [ONE, ONE]],
    }
    for name, q in cases.items():
        c = GenericBraiding.diagonal(q)
        standard, _ = normal_forms(c, 5)
        for n in range(6):
            assert len(standard[n]) == oracle_dimension(c, n), (name, n)
    _announce("standard monomial count == rank oracle, n <= 5")


def test_sweedler_pipeline_under_5s():
    t0 = time.monotonic()
    h = build_cached("sweedler_h4")
    report = run_pipeline(h, subspace_from_indices(h, (0, 1)), 3)
    elapsed = time.monotonic() - t0
    assert report["filtration"]["dims"] == [2, 4]
    assert report["R"]["dim"] == 2
    assert report["R"]["c_r_first"] == "-1"
    assert report["bosonization"]["bijective"] is True
    assert report["pbw"]["verdict"] == PBW_TYPE_TRUE
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"
    _announce(f"Sweedler pipeline (dims [2,4], R dim 2, c_R=-1, {elapsed:.2f}s < 5s)")


def test_taft_negative_control():
    h = build_cached("taft3")
    report = run_pipeline(h, subspace_from_indices(h, (0, 1, 2)), 3)
    assert report["R"]["c_r_symmetric"] is False
    assert report["pbw"]["verdict"] == PBW_TYPE_FALSE
    assert report["pbw"]["first_failure_degree"] == 2
    assert report["pbw"]["dims"][2] == [1, 0]
    _announce("Taft negative control (c_R not symmetric, false at degree 2, 1 vs 0)")


def test_braiding_collapse_cases():
    # trivial K on every connected entry
    for name in CONNECTED_SYMMETRIC:
        h = build_cached(name)
        gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, (0,))))
        coinv = compute_R(gr)
        rep = check_braiding_collapse(coinv)
        assert rep["hypothesis_holds"] and rep["c_r_equals_c"], name
    # the central-inclusion entry
    h = solvable_pair()
    yidx = tuple(i for i, nm in enumerate(h.names)
                 if nm == "1" or (nm.startswith("y") and "x" not in nm))
    gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, yidx)))
    coinv = compute_R(gr)
    rep = check_braiding_collapse(coinv)
    assert rep["i_central"] and rep["c_r_equals_c"]
    # the Sweedler case fails both hypotheses and the braidings differ
    h4 = build_cached("sweedler_h4")
    gr4 = associated_graded(hopf_filtration(h4, subspace_from_indices(h4, (0, 1))))
    rep4 = check_braiding_collapse(compute_R(gr4))
    assert not rep4["hypothesis_holds"] and not rep4["c_r_equals_c"]
    assert rep4["status"] == "vacuous_differs"
    _announce("braiding collapse: confirmed for trivial and central K, recorded for Sweedler")


# sha256 of the default `braidpbw corpus --report` document (the same under
# any PYTHONHASHSEED); a different digest is a change in the engine's answers
CORPUS_REPORT_SHA256 = "3353f5e896bc07144c73e243d6300bdd697e49d44e4973b9db3dc4741f952590"

# sha256 of dumps_canonical(run_pipeline(poly_plane(T), span(1), T)), the
# plane_ladder references of the benchmark
PLANE_PIPELINE_SHA256 = {
    1: "de67e6464163eeca8b7c76e1cda55854a0a69213029f214e4f0d040401288e18",
    2: "0a02774ec56ecd3593ef0304839455aceec6ec9bde26a45633a60d4b72101c1c",
    3: "0e8e24e82a4ac03fd4b3c6afe2f06edc4223caee6f59715f0b1266abd301298f",
}


def test_corpus_reports_byte_deterministic(tmp_path):
    from braidpbw.cli import main

    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["corpus", "--report", p1]) == 0
    assert main(["corpus", "--report", p2]) == 0
    b1 = open(p1, "rb").read()
    b2 = open(p2, "rb").read()
    assert b1 == b2 and len(b1) > 0
    assert hashlib.sha256(b1).hexdigest() == CORPUS_REPORT_SHA256
    _announce("corpus reports byte-identical across consecutive runs and to the recorded digest")


def test_poly_plane_pipeline_report_digests():
    from braidpbw.corpus import poly_plane
    from braidpbw.serialize import dumps_canonical

    for t, digest in PLANE_PIPELINE_SHA256.items():
        h = poly_plane(t)
        text = dumps_canonical(run_pipeline(h, subspace_from_indices(h, (0,)), t))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, f"T={t}"
    _announce("poly_plane pipeline reports match the recorded digests, T=1..3")
