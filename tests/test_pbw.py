import inspect
import random

import pytest

import reference_checkers as ref
from braidpbw import pbw
from braidpbw.braided_space import GenericBraiding, braid_check
from braidpbw.coinvariants import compute_R
from braidpbw.corpus import (
    corpus_entries,
    poly_line,
    solvable_pair,
    solvable_pair_y_indices,
    symmetric_bialgebra,
    taft as build_taft,
)
from braidpbw.filtration import (
    associated_graded,
    hopf_filtration,
    subspace_from_indices,
)
from braidpbw.linalg import rank
from braidpbw.pbw import (
    INCONCLUSIVE,
    PBW_TYPE_FALSE,
    PBW_TYPE_TRUE,
    QSpace,
    canonical_map,
    compute_Q,
    pbw_basis,
    pbw_verdict,
)
from braidpbw.reporting import BraidpbwError
from braidpbw.scalars import MINUS_ONE, ONE, root_of_unity
from braidpbw.symmetric_algebra import monomial_str, normal_forms
from test_checker_oracle import _perturb, _quantum_plane
from test_symmetric_algebra import SET_THEORETIC


def gr_of(h):
    return associated_graded(hopf_filtration(h, subspace_from_indices(h, (0,))))


def relative_R(h, sub):
    gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, sub)))
    return compute_R(gr)


def degrees(q, h):
    """The degrees of Q's generators, read from the target."""
    return [h.degree(i) for i in q.indices]


def test_compute_Q_poly(corpus):
    gr = gr_of(corpus["poly_line"])
    q = compute_Q(gr)
    assert q.dim == 1
    assert degrees(q, gr) == [1]
    assert q.braiding.rows[0][0] == {(0, 0): ONE}


def test_compute_Q_h4_R(h4):
    coinv = relative_R(h4, (0, 1))
    q = compute_Q(coinv.algebra)
    assert q.dim == 1 and degrees(q, coinv.algebra) == [1]
    assert q.braiding.rows[0][0] == {(0, 0): MINUS_ONE}


def test_compute_Q_taft_R(taft):
    coinv = relative_R(taft, (0, 1, 2))
    q = compute_Q(coinv.algebra)
    # only the class of x survives: its square is decomposable
    assert q.dim == 1 and degrees(q, coinv.algebra) == [1]
    assert q.braiding.rows[0][0] == {(0, 0): root_of_unity(3)}


def test_compute_Q_solvable(corpus):
    gr = gr_of(corpus["solvable_pair"])
    q = compute_Q(gr)
    assert q.dim == 2
    assert degrees(q, gr) == [1, 1]
    assert braid_check(q.braiding)


def test_canonical_map_poly_identity(corpus):
    gr = gr_of(corpus["poly_line"])
    q = compute_Q(gr)
    data = canonical_map(q, gr, 5)
    for n in range(1, 6):
        entry = data[n]
        assert entry["sq_dim"] == entry["target_dim"] == 1
        assert rank(entry["matrix"]) == 1
        assert entry["ideal_maps_to_zero"]


def test_canonical_map_solvable_degree2(corpus):
    gr = gr_of(corpus["solvable_pair"])
    q = compute_Q(gr)
    entry = canonical_map(q, gr, 2)[2]
    assert entry["sq_dim"] == 3 and entry["target_dim"] == 3
    assert rank(entry["matrix"]) == 3
    assert entry["monomials"] == [(0, 0), (0, 1), (1, 1)]


def test_canonical_map_taft_degree2_deficient(taft):
    coinv = relative_R(taft, (0, 1, 2))
    q = compute_Q(coinv.algebra)
    entry = canonical_map(q, coinv.algebra, 2)[2]
    assert entry["sq_dim"] == 0 and entry["target_dim"] == 1


@pytest.mark.parametrize("name,expected_dims", [
    ("poly_line", [1] * 7),
    ("poly_plane", [1, 2, 3, 4, 5, 6, 7]),
    ("solvable_pair", [1, 2, 3, 4, 5, 6, 7]),
    ("super_line", [1, 2, 2, 2, 2, 2, 2]),
    ("color_plane", [1, 2, 3, 4, 5, 6, 7]),
])
def test_pbw_true_for_connected_symmetric(corpus, name, expected_dims):
    gr = gr_of(corpus[name])
    report = pbw_verdict(gr, 6)
    assert report.verdict == PBW_TYPE_TRUE
    assert [t for t, s in report.degreewise_dims] == expected_dims
    assert all(t == s for t, s in report.degreewise_dims)
    assert report.intertwines_generators
    assert report.witness


def test_pbw_h4_as_module_over_K(h4):
    coinv = relative_R(h4, (0, 1))
    report = pbw_verdict(coinv.algebra, 2)
    assert report.verdict == PBW_TYPE_TRUE
    assert report.degreewise_dims == [(1, 1), (1, 1), (0, 0)]


def test_pbw_taft_negative_control(taft):
    coinv = relative_R(taft, (0, 1, 2))
    report = pbw_verdict(coinv.algebra, 3)
    assert report.verdict == PBW_TYPE_FALSE
    assert report.first_failure_degree == 2
    assert report.degreewise_dims[2] == (1, 0)
    assert not report.braiding_symmetric
    assert report.witness is None


def test_pbw_yline(corpus):
    h = solvable_pair()
    yidx = tuple(i for i, nm in enumerate(h.names)
                 if nm == "1" or (nm.startswith("y") and "x" not in nm))
    coinv = relative_R(h, yidx)
    report = pbw_verdict(coinv.algebra, 6)
    assert report.verdict == PBW_TYPE_TRUE
    assert report.degreewise_dims == [(1, 1)] * 7


def test_pbw_inconclusive_beyond_truncation(corpus):
    gr = gr_of(corpus["poly_line"])
    report = pbw_verdict(gr, 10)
    assert report.verdict == INCONCLUSIVE
    assert report.verified_degree == 6
    assert report.requested_degree == 10
    assert report.notes


def test_pbw_dims_match_symmetric_algebra_oracles(corpus):
    # the report's symmetric-algebra dims against the standard monomials of
    # the symmetric-algebra module and the full-word rank oracle
    for name in ("poly_plane", "super_line", "color_plane"):
        gr = gr_of(corpus[name])
        q = compute_Q(gr)
        report = pbw_verdict(gr, 5)
        standard, _ = normal_forms(q.braiding, 5)
        for n in range(1, 6):
            sq = report.degreewise_dims[n][1]
            assert sq == len(standard[n])
            assert sq == ref.oracle_dimension(q.braiding, n)


def test_pbw_basis_polynomial(corpus):
    gr = gr_of(corpus["poly_plane"])
    basis, refusal = pbw_basis(pbw_verdict(gr, 3))
    assert refusal is None
    assert basis[:6] == ["1", "x", "y", "x^2", "x*y", "y^2"]


def test_pbw_basis_h4(h4):
    coinv = relative_R(h4, (0, 1))
    basis, refusal = pbw_basis(pbw_verdict(coinv.algebra, 2))
    assert basis == ["1", "x"] and refusal is None


def test_pbw_basis_refuses_on_false(taft):
    coinv = relative_R(taft, (0, 1, 2))
    basis, refusal = pbw_basis(pbw_verdict(coinv.algebra, 3))
    assert basis is None
    assert "PBW_TYPE_FALSE" in refusal


def _corpus_R():
    """(label, R) for every corpus entry with a subalgebra, the truncated
    ones at T = 1..3."""
    for entry in corpus_entries():
        if entry.sub_indices is None:
            continue
        truncated = "truncation" in inspect.signature(entry.build).parameters
        for t in ((1, 2, 3) if truncated else (None,)):
            h = entry.build() if t is None else entry.build(t)
            sub = entry.sub_indices
            if entry.name == "solvable_pair_yline" and t is not None:
                sub = solvable_pair_y_indices(t)
            sub = sorted(i for i in sub if i < h.dim)
            yield f"{entry.name}@T={t}", relative_R(h, sub).algebra


def _perturbed_Q(rng, q, h):
    """Q with one entry of its braiding table changed by a nonzero delta, at
    a term of the same weight in the target h, so that the braiding stays
    graded."""
    d, deg = q.dim, degrees(q, h)
    i, j = rng.randrange(d), rng.randrange(d)
    keys = [(k, l) for k in range(d) for l in range(d) if deg[k] + deg[l] == deg[i] + deg[j]]
    rows = [list(row) for row in q.braiding.rows]
    rows[i][j] = _perturb(rng, rows[i][j], rng.choice(keys))
    return QSpace(q.indices, GenericBraiding(rows))


def test_generators_intertwine_matches_reference():
    """The table comparison against the slot-operation evaluation, on the
    generator space of every corpus R and on perturbed copies of it."""
    rng = random.Random(9)
    seen = set()
    for label, r_alg in _corpus_R():
        q = compute_Q(r_alg)
        for candidate in [q] + [_perturbed_Q(rng, q, r_alg) for _ in range(3 if q.dim else 0)]:
            got = pbw._generators_intertwine(candidate, r_alg)
            assert got == ref.generators_intertwine(candidate, r_alg), label
            seen.add((candidate is q, got))
    # every unperturbed space intertwines, and perturbations are detected
    assert (True, False) not in seen and (False, False) in seen, seen


def _standard_monomial_names(q, h, n_max):
    """Names of the standard monomials of weight <= n_max, found afresh: for
    a diagonal braiding the non-decreasing words, strictly increasing at a
    generator with q_ii != 1; otherwise the full-word elimination's
    complement."""
    qmat, deg = q.braiding.diagonal_coefficients(), degrees(q, h)
    names = [h.names[i] for i in q.indices]
    out = ["1"]
    for n in range(1, n_max + 1):
        if qmat is None:
            words = ref.tensor_ideal_complement(q.braiding, deg, n)[2]
        else:
            words = [w for w in ref.weighted_words(q.dim, deg, n)
                     if all(a < b or (a == b and qmat[a][a].is_one()) for a, b in zip(w, w[1:]))]
        out.extend(monomial_str(names, w) for w in words)
    return out


def _set_theoretic_R():
    """(label, R) for S(V, c) of both set-theoretic solutions at T = 3."""
    for name, (c, _) in sorted(SET_THEORETIC.items()):
        h = symmetric_bialgebra([f"x{i}" for i in range(c.dim)], c, 3)
        yield name, relative_R(h, (0,)).algebra


def _quantum_plane_R():
    for n in (3, 4, 12):
        yield f"quantum_plane_N{n}", relative_R(_quantum_plane(n, 3), (0,)).algebra


def test_pbw_basis_is_the_standard_monomials():
    """The basis read off the canonical map's standard monomials names the
    same words as an independent enumeration, on every corpus R, on the
    quantum planes at N = 3, 4, 12 and on both set-theoretic solutions."""
    compared = 0
    for label, r_alg in [*_corpus_R(), *_quantum_plane_R(), *_set_theoretic_R()]:
        report = pbw_verdict(r_alg, 3)
        if report.monomial_basis is None:
            continue
        q = compute_Q(r_alg)
        assert report.monomial_basis == _standard_monomial_names(q, r_alg, report.verified_degree), label
        compared += 1
    assert compared >= 12, compared


def _weighted_line():
    """The polynomial line at T = 3 with x and x^2 taken as flip-braided
    generators of weights 1 and 2: a generator space of mixed weights."""
    h = poly_line(3)
    return h, QSpace([h.degree_indices(n)[0] for n in (1, 2)], GenericBraiding.flip(2))


def test_canonical_map_matches_reference():
    """The canonical map through normal forms and generator relations equals
    the full-word elimination with the ideal checked on every word: the
    same monomials, matrices and dims in every degree, and the same ideal
    verdicts through the reference's first failing degree.  Inputs: every
    corpus R, the quantum planes, taft(4) and taft(5), both set-theoretic
    solutions, a weighted generator space, and weight-preserving
    perturbations of each braiding."""
    rng = random.Random(16)
    inputs = [(label, compute_Q(r_alg), r_alg) for label, r_alg in
              [*_corpus_R(), *_quantum_plane_R(), *_set_theoretic_R(),
               *((f"taft{n}", relative_R(build_taft(n), tuple(range(n))).algebra) for n in (4, 5))]]
    h, q = _weighted_line()
    inputs.append(("weighted_line", q, h))
    failing = 0
    for label, q, target in inputs:
        top = target.truncation if target.truncation is not None else 4
        for candidate in [q] + [_perturbed_Q(rng, q, target) for _ in range(3)]:
            got = canonical_map(candidate, target, top)
            want = ref.canonical_map(candidate, target, top)
            first = next((n for n in want if not want[n]["ideal_maps_to_zero"]), top)
            for n in range(1, top + 1):
                for key in ("monomials", "matrix", "target_dim", "sq_dim"):
                    assert got[n][key] == want[n][key], (label, n, key)
                if n <= first:
                    assert got[n]["ideal_maps_to_zero"] == want[n]["ideal_maps_to_zero"], (label, n)
            failing += not want[first]["ideal_maps_to_zero"]
    # the perturbations reach the ideal check
    assert failing >= 10, failing


def test_canonical_map_rejects_a_weight_mixing_braiding():
    h, q = _weighted_line()
    rows = [list(row) for row in q.braiding.rows]
    # c(x (x) x) gains a term x (x) x^2, of weight 3 against 2
    rows[0][0] = _perturb(random.Random(0), rows[0][0], (0, 1))
    with pytest.raises(BraidpbwError, match="does not preserve degree"):
        canonical_map(QSpace(q.indices, GenericBraiding(rows)), h, 3)
