import inspect
import random

import pytest

import reference_checkers as ref
from braidpbw import pbw
from braidpbw.braided_space import GenericBraiding, braid_check, is_symmetric
from braidpbw.coinvariants import compute_R
from braidpbw.corpus import corpus_entries, solvable_pair, solvable_pair_y_indices
from braidpbw.filtration import (
    associated_graded,
    coradical_filtration_connected,
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
from braidpbw.scalars import MINUS_ONE, ONE, root_of_unity
from braidpbw.symmetric_algebra import monomial_str, weighted_words
from test_checker_oracle import _perturb, _quantum_plane


def gr_of(h):
    return associated_graded(h, coradical_filtration_connected(h)).algebra


def relative_R(h, sub):
    gr = associated_graded(h, hopf_filtration(h, subspace_from_indices(h, sub))).algebra
    return compute_R(gr)


def test_compute_Q_poly(corpus):
    q = compute_Q(gr_of(corpus["poly_line"]))
    assert q.dim == 1
    assert q.degrees == [1]
    assert q.braiding.rows[0][0] == {(0, 0): ONE}


def test_compute_Q_h4_R(h4):
    coinv = relative_R(h4, (0, 1))
    q = compute_Q(coinv)
    assert q.dim == 1 and q.degrees == [1]
    assert q.braiding.rows[0][0] == {(0, 0): MINUS_ONE}


def test_compute_Q_taft_R(taft):
    coinv = relative_R(taft, (0, 1, 2))
    q = compute_Q(coinv)
    # only the class of x survives: its square is decomposable
    assert q.dim == 1 and q.degrees == [1]
    assert q.braiding.rows[0][0] == {(0, 0): root_of_unity(3)}


def test_compute_Q_solvable(corpus):
    q = compute_Q(gr_of(corpus["solvable_pair"]))
    assert q.dim == 2
    assert q.degrees == [1, 1]
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
    q = compute_Q(coinv)
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
    report = pbw_verdict(coinv, 2)
    assert report.verdict == PBW_TYPE_TRUE
    assert report.degreewise_dims == [(1, 1), (1, 1), (0, 0)]


def test_pbw_taft_negative_control(taft):
    coinv = relative_R(taft, (0, 1, 2))
    report = pbw_verdict(coinv, 3)
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
    report = pbw_verdict(coinv, 6)
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
    # third route: the report's symmetric-algebra dims against the standard
    # monomials of the symmetric-algebra module and its rank oracle
    from braidpbw.symmetric_algebra import normal_forms, oracle_dimension

    for name in ("poly_plane", "super_line", "color_plane"):
        gr = gr_of(corpus[name])
        q = compute_Q(gr)
        report = pbw_verdict(gr, 5)
        standard, _ = normal_forms(q.braiding, 5)
        for n in range(1, 6):
            sq = report.degreewise_dims[n][1]
            assert sq == len(standard[n])
            assert sq == oracle_dimension(q.braiding, n)


def test_pbw_basis_polynomial(corpus):
    gr = gr_of(corpus["poly_plane"])
    result = pbw_basis(pbw_verdict(gr, 3))
    assert result.refusal is None
    assert result.monomials[:6] == ["1", "x", "y", "x^2", "x*y", "y^2"]


def test_pbw_basis_h4(h4):
    coinv = relative_R(h4, (0, 1))
    result = pbw_basis(pbw_verdict(coinv, 2))
    assert result.monomials == ["1", "x"]


def test_pbw_basis_refuses_on_false(taft):
    coinv = relative_R(taft, (0, 1, 2))
    result = pbw_basis(pbw_verdict(coinv, 3))
    assert result.monomials is None
    assert "PBW_TYPE_FALSE" in result.refusal


def test_pbw_basis_refuses_non_diagonal():
    # conjugate the super braiding by a shear: still symmetric, not diagonal
    from braidpbw.pbw import PBWReport

    base = [[ONE, ONE], [ONE, MINUS_ONE]]
    # c'(i,j) entries of (P (x) P) c (P^-1 (x) P^-1) with P = [[1,1],[0,1]]
    from braidpbw.braided_space import GenericBraiding as GB
    from braidpbw.scalars import ZERO

    p = [[ONE, ONE], [ZERO, ONE]]
    pinv = [[ONE, MINUS_ONE], [ZERO, ONE]]
    c = GB.diagonal(base)
    rows = [[{}, {}], [{}, {}]]
    for i in range(2):
        for j in range(2):
            entry = {}
            for a in range(2):
                for b in range(2):
                    if pinv[i][a].is_zero() or pinv[j][b].is_zero():
                        continue
                    for (x, y), s in c.rows[a][b].items():
                        for k in range(2):
                            for l in range(2):
                                coeff = pinv[i][a] * pinv[j][b] * s * p[x][k] * p[y][l]
                                if not coeff.is_zero():
                                    entry[(k, l)] = entry.get((k, l), ZERO) + coeff
            rows[i][j] = {kk: vv for kk, vv in entry.items() if not vv.is_zero()}
    twisted = GB(rows)
    assert braid_check(twisted)
    assert is_symmetric(twisted)
    assert twisted.diagonal_coefficients() is None
    report = PBWReport(verdict=PBW_TYPE_TRUE, degreewise_dims=[(1, 1)],
                       requested_degree=1, verified_degree=1,
                       braiding_diagonal=twisted.diagonal_coefficients() is not None,
                       braiding_symmetric=is_symmetric(twisted))
    result = pbw_basis(report)
    assert result.monomials is None
    assert "not diagonal" in result.refusal


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


def _perturbed_Q(rng, q):
    """Q with one entry of its braiding table changed by a nonzero delta."""
    d = q.dim
    i, j = rng.randrange(d), rng.randrange(d)
    rows = [list(row) for row in q.braiding.rows]
    rows[i][j] = _perturb(rng, rows[i][j], (rng.randrange(d), rng.randrange(d)))
    return QSpace(q.reps, q.degrees, q.names, GenericBraiding(rows))


def test_generators_intertwine_matches_reference():
    """The table comparison against the slot-operation evaluation, on the
    generator space of every corpus R and on perturbed copies of it."""
    rng = random.Random(9)
    seen = set()
    for label, r_alg in _corpus_R():
        q = compute_Q(r_alg)
        for candidate in [q] + [_perturbed_Q(rng, q) for _ in range(3 if q.dim else 0)]:
            got = pbw._generators_intertwine(candidate, r_alg)
            assert got == ref.generators_intertwine(candidate, r_alg), label
            seen.add((candidate is q, got))
    # every unperturbed space intertwines, and perturbations are detected
    assert (True, False) not in seen and (False, False) in seen, seen


def _standard_monomial_names(q, n_max):
    """Names of the non-decreasing words of weight <= n_max, strictly
    increasing at a generator with q_ii != 1, enumerated afresh."""
    qmat = q.braiding.diagonal_coefficients()
    out = ["1"]
    for n in range(1, n_max + 1):
        for w in weighted_words(q.dim, q.degrees, n):
            if all(a < b or (a == b and qmat[a][a].is_one()) for a, b in zip(w, w[1:])):
                out.append(monomial_str(q.names, w))
    return out


def test_pbw_basis_is_the_standard_monomials():
    """The basis read off the canonical map's standard monomials names the
    same words as an independent enumeration, on every corpus R and on the
    quantum planes at N = 3, 4, 12."""
    planes = [(f"quantum_plane_N{n}", relative_R(_quantum_plane(n, 3), (0,)).algebra)
              for n in (3, 4, 12)]
    compared = 0
    for label, r_alg in list(_corpus_R()) + planes:
        report = pbw_verdict(r_alg, 3)
        if report.monomial_basis is None:
            continue
        q = compute_Q(r_alg)
        assert report.monomial_basis == _standard_monomial_names(q, report.verified_degree), label
        compared += 1
    assert compared >= 10, compared
