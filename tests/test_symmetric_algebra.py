import random
from itertools import combinations

import pytest

from braidpbw.braided_space import GenericBraiding, braid_check, is_symmetric
from braidpbw.corpus import symmetric_bialgebra
from braidpbw.filtration import subspace_from_indices
from braidpbw.findim_hopf import run_all_checks
from braidpbw.multilinear import vadd_into, vec_equal
from braidpbw.pipeline import flat_summary, run_pipeline
from braidpbw.scalars import MINUS_ONE, ONE, root_of_unity
from braidpbw.symmetric_algebra import monomial_str, normal_form, normal_forms
from reference_checkers import oracle_dimension, tensor_ideal_complement, weighted_words


# diagonal braidings c(x_i (x) x_j) = q[i][j] x_j (x) x_i, by their q-matrices

def super_line():
    # x even (index 0), th odd (index 1)
    return [[ONE, ONE], [ONE, MINUS_ONE]]


def exterior_two():
    return [[MINUS_ONE, ONE], [ONE, MINUS_ONE]]


def color_pair():
    return [[ONE, MINUS_ONE], [MINUS_ONE, ONE]]


def polynomial_one():
    return [[ONE]]


def quantum_plane_12():
    zeta = root_of_unity(12)
    return [[ONE, zeta], [zeta.inverse(), ONE]]


def three_generators_12():
    # y odd, x and z even, every pair braided by a different 12th root of unity
    zeta = root_of_unity(12)
    return [[ONE, zeta, zeta ** 5], [zeta ** 11, MINUS_ONE, zeta ** 3],
            [zeta ** 7, zeta ** 9, ONE]]


CORPUS = [polynomial_one, super_line, exterior_two, color_pair]


def _forms(q, top):
    return normal_forms(GenericBraiding.diagonal(q), top)


def _nf(q, word):
    return normal_form(_forms(q, len(word))[1], word)


def _product(q, a, b):
    """The product of two normal forms, by folding each concatenation."""
    table = _forms(q, max(len(u) for u in a) + max(len(v) for v in b))[1]
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            vadd_into(out, normal_form(table, u + v), cu * cv)
    return out


def _closed_form(q, word):
    """Normal form of a word for a diagonal symmetric braiding: the sorted
    word times q[w_p][w_r] over every inversion p < r, zero when a letter
    with q_ii = -1 repeats."""
    if any(q[i][i] == MINUS_ONE and word.count(i) > 1 for i in set(word)):
        return {}
    coef = ONE
    for p, r in combinations(range(len(word)), 2):
        if word[p] > word[r]:
            coef = coef * q[word[p]][word[r]]
    return {tuple(sorted(word)): coef}


def test_rejects_non_symmetric():
    z3 = root_of_unity(3)
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_bialgebra(["x", "y"], GenericBraiding.diagonal([[ONE, z3], [z3, ONE]]), 2)


def test_normal_form_single_swap():
    assert _nf(color_pair(), (1, 0)) == {(0, 1): MINUS_ONE}


def test_normal_form_nilpotent_square():
    assert _nf(super_line(), (1, 1)) == {}


def test_normal_form_sandwiched_nilpotent():
    # th x th straightens to x th th and dies
    assert _nf(super_line(), (1, 0, 1)) == {}


def test_product_examples():
    assert _product(super_line(), {(0,): ONE}, {(0,): ONE}) == {(0, 0): ONE}
    assert _product(super_line(), {(1,): ONE}, {(1,): ONE}) == {}
    assert _product(color_pair(), {(0, 1): ONE}, {(0,): ONE}) == {(0, 0, 1): MINUS_ONE}


def test_basis_in_degree():
    standard, _ = _forms(super_line(), 2)
    assert standard == [[()], [(0,), (1,)], [(0, 0), (0, 1)]]
    standard, _ = _forms(exterior_two(), 3)
    assert standard[2] == [(0, 1)]
    assert standard[3] == []


def test_hilbert_series():
    def series(q, top):
        return [len(ws) for ws in _forms(q, top)[0]]

    assert series(polynomial_one(), 5) == [1, 1, 1, 1, 1, 1]
    assert series(super_line(), 4) == [1, 2, 2, 2, 2]
    assert series(exterior_two(), 4) == [1, 2, 1, 0, 0]
    assert series(color_pair(), 4) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("factory", CORPUS + [quantum_plane_12, three_generators_12])
def test_normal_forms_match_diagonal_closed_form(factory):
    q = factory()
    rng = random.Random(13)
    table = _forms(q, 8)[1]
    for _ in range(300):
        word = tuple(rng.randrange(len(q)) for _ in range(rng.randint(0, 8)))
        assert vec_equal(normal_form(table, word), _closed_form(q, word)), word


def test_oracle_examples():
    assert oracle_dimension(GenericBraiding.flip(2), 2) == 3
    assert oracle_dimension(GenericBraiding.diagonal(super_line()), 2) == 2
    z3 = root_of_unity(3)
    taft_control = GenericBraiding([[{(0, 0): z3}]])
    assert oracle_dimension(taft_control, 2) == 0


@pytest.mark.parametrize("factory", CORPUS)
def test_straightened_monomial_count_matches_oracle(factory):
    c = GenericBraiding.diagonal(factory())
    standard, _ = normal_forms(c, 5)
    for n in range(6):
        assert len(standard[n]) == oracle_dimension(c, n), (factory.__name__, n)


@pytest.mark.parametrize("factory", CORPUS)
def test_product_is_braided_commutative(factory):
    q = factory()
    d = len(q)
    words = [(i,) for i in range(d)] + [(i, j) for i in range(d) for j in range(d)]
    for u in words:
        for v in words:
            left = _product(q, {u: ONE}, {v: ONE})
            lam = ONE
            for i in u:
                for j in v:
                    lam = lam * q[i][j]
            right = _product(q, {v: ONE}, {u: ONE})
            assert vec_equal(left, {w: lam * c for w, c in right.items()})


def test_normal_form_idempotent_and_multiplicative():
    q = color_pair()
    table = _forms(q, 6)[1]
    rng = random.Random(5)
    for _ in range(50):
        u = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        nf_uv = normal_form(table, u + v)
        again = {}
        for w, c in nf_uv.items():
            vadd_into(again, normal_form(table, w), c)
        assert vec_equal(nf_uv, again)
        prod = {}
        for a, ca in normal_form(table, u).items():
            for b, cb in normal_form(table, v).items():
                vadd_into(prod, normal_form(table, a + b), ca * cb)
        assert vec_equal(nf_uv, prod)


def test_weighted_words():
    assert weighted_words(2, [1, 2], 2) == [(0, 0), (1,)]
    assert weighted_words(1, [1], 3) == [(0, 0, 0)]


def test_tensor_ideal_complement_matches_monomials():
    c = GenericBraiding.diagonal(exterior_two())
    words, pivots, complement = tensor_ideal_complement(c, [1, 1], 2)
    assert complement == [(0, 1)]


def _set_theoretic(sigma):
    """The braiding c(e_x (x) e_y) = e_{sigma_x(y)} (x) e_{tau_y(x)} of an
    involutive non-degenerate set-theoretic solution, given by the
    permutations sigma_x as tuples; tau_y(x) is sigma_{sigma_x(y)}^-1(x)."""
    n = len(sigma)

    def tau(y, x):
        return sigma[sigma[x][y]].index(x)

    return GenericBraiding([[{(sigma[x][y], tau(y, x)): ONE} for y in range(n)]
                            for x in range(n)])


# Lyubashenko's permutation solution on 3 points, r(x, y) = (s(y), s^-1(x))
# with s a 3-cycle, and a 4-point solution with sigma_0 = sigma_1 = id and
# sigma_2 = sigma_3 = (01); both are involutive, so S(V, c) has the Hilbert
# series of a polynomial algebra (Etingof-Schedler-Soloviev)
LYUBASHENKO_3 = _set_theoretic(((1, 2, 0),) * 3)
FOUR_POINT = _set_theoretic(((0, 1, 2, 3),) * 2 + ((1, 0, 2, 3),) * 2)
SET_THEORETIC = {"lyubashenko_3": (LYUBASHENKO_3, [1, 3, 6, 10, 15, 21]),
                 "four_point": (FOUR_POINT, [1, 4, 10, 20, 35, 56])}


def test_tensor_ideal_complement_prefers_nondecreasing_words():
    braidings = [GenericBraiding.diagonal(f()) for f in CORPUS + [quantum_plane_12]]
    for c in braidings + [c for c, _ in SET_THEORETIC.values()]:
        standard, _ = normal_forms(c, 5)
        for n in range(6):
            _, _, complement = tensor_ideal_complement(c, [1] * c.dim, n)
            assert complement == standard[n], n


@pytest.mark.parametrize("name", sorted(SET_THEORETIC))
def test_set_theoretic_solution_symmetric_algebra(name):
    c, counts = SET_THEORETIC[name]
    assert braid_check(c) and is_symmetric(c)
    assert c.diagonal_coefficients() is None
    standard, _ = normal_forms(c, 5)
    assert [len(ws) for ws in standard] == counts
    assert counts == [oracle_dimension(c, n) for n in range(6)]
    names = [f"x{i}" for i in range(c.dim)]
    h = symmetric_bialgebra(names, c, 3)
    assert all(report.ok for report in run_all_checks(h).values())
    report = run_pipeline(h, subspace_from_indices(h, (0,)), 3)
    summary = flat_summary(report)
    assert summary["pbw_verdict"] == "PBW_TYPE_TRUE"
    assert summary["pbw_dims"] == [[k, k] for k in counts[:4]]
    assert summary["c_r_symmetric"] and summary["c_r_equals_c"]
    assert summary["gr_c_commutative"]
    # a positive verdict names a basis for a non-diagonal braiding too
    assert not report["pbw"]["braiding_diagonal"]
    assert report["pbw"]["refusal"] is None
    assert report["pbw"]["basis"] == ["1"] + [monomial_str(names, w)
                                               for ws in standard[1:4] for w in ws]


def test_monomial_str():
    names = ("x", "th")
    assert monomial_str(names, ()) == "1"
    assert monomial_str(names, (0, 0, 1)) == "x^2*th"
    assert monomial_str(("g", "x"), (0, 0, 1, 1, 1)) == "g^2*x^3"
