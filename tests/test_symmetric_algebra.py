import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpbw.braided_space import GenericBraiding
from braidpbw.multilinear import vec_equal
from braidpbw.scalars import MINUS_ONE, ONE, root_of_unity
from braidpbw.symmetric_algebra import (
    SymmetricAlgebra,
    monomial_str,
    oracle_dimension,
    tensor_ideal_complement,
    weighted_words,
)


def super_line():
    # x even (index 0), th odd (index 1)
    return SymmetricAlgebra(["x", "th"], [[ONE, ONE], [ONE, MINUS_ONE]])


def exterior_two():
    return SymmetricAlgebra(["a", "b"], [[MINUS_ONE, ONE], [ONE, MINUS_ONE]])


def color_pair():
    return SymmetricAlgebra(["x", "y"], [[ONE, MINUS_ONE], [MINUS_ONE, ONE]])


def polynomial_one():
    return SymmetricAlgebra(["x"], [[ONE]])


CORPUS = [polynomial_one, super_line, exterior_two, color_pair]


def test_rejects_non_symmetric():
    z3 = root_of_unity(3)
    with pytest.raises(ValueError, match="oracle"):
        SymmetricAlgebra(["x", "y"], [[ONE, z3], [z3, ONE]])


def test_normal_form_single_swap():
    sym = color_pair()
    out = sym.normal_form((1, 0))
    assert out == {(0, 1): MINUS_ONE}


def test_normal_form_nilpotent_square():
    sym = super_line()
    assert sym.normal_form((1, 1)) == {}


def test_normal_form_sandwiched_nilpotent():
    # th x th straightens to x th th and dies
    sym = super_line()
    assert sym.normal_form((1, 0, 1)) == {}


def test_product_examples():
    sym = super_line()
    assert sym.product({(0,): ONE}, {(0,): ONE}) == {(0, 0): ONE}
    assert sym.product({(1,): ONE}, {(1,): ONE}) == {}
    color = color_pair()
    out = color.product({(0, 1): ONE}, {(0,): ONE})
    assert out == {(0, 0, 1): MINUS_ONE}


def test_basis_in_degree():
    sym = super_line()
    assert sym.basis_in_degree(0) == [()]
    assert sym.basis_in_degree(2) == [(0, 0), (0, 1)]
    ext = exterior_two()
    assert ext.basis_in_degree(2) == [(0, 1)]
    assert ext.basis_in_degree(3) == []


def test_hilbert_series():
    assert polynomial_one().hilbert_series(5) == [1, 1, 1, 1, 1, 1]
    assert super_line().hilbert_series(4) == [1, 2, 2, 2, 2]
    assert exterior_two().hilbert_series(4) == [1, 2, 1, 0, 0]
    assert color_pair().hilbert_series(4) == [1, 2, 3, 4, 5]


def test_oracle_examples():
    assert oracle_dimension(GenericBraiding.flip(2), 2) == 3
    assert super_line().oracle_dimension(2) == 2
    z3 = root_of_unity(3)
    taft_control = GenericBraiding([[{(0, 0): z3}]])
    assert oracle_dimension(taft_control, 2) == 0


def test_oracle_degree_cap():
    with pytest.raises(ValueError):
        oracle_dimension(GenericBraiding.flip(2), 9)


@pytest.mark.parametrize("factory", CORPUS)
def test_straightened_monomial_count_matches_oracle(factory):
    sym = factory()
    for n in range(6):
        assert len(sym.basis_in_degree(n)) == sym.oracle_dimension(n), (factory.__name__, n)


@pytest.mark.parametrize("factory", CORPUS)
def test_product_is_braided_commutative(factory):
    sym = factory()
    d = sym.dim
    words = [(i,) for i in range(d)] + [(i, j) for i in range(d) for j in range(d)]
    for u in words:
        for v in words:
            left = sym.product({u: ONE}, {v: ONE})
            lam = ONE
            for i in u:
                for j in v:
                    lam = lam * sym.q[i][j]
            right = sym.product({v: ONE}, {u: ONE})
            assert vec_equal(left, {w: lam * c for w, c in right.items()})


def test_normal_form_idempotent_and_multiplicative():
    sym = color_pair()
    rng = random.Random(5)
    for _ in range(50):
        u = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        nf_uv = sym.normal_form(u + v)
        again = sym.product(nf_uv, {(): ONE})  # the empty word is the unit
        assert vec_equal(nf_uv, again)
        prod = sym.product(sym.normal_form(u), sym.normal_form(v))
        assert vec_equal(nf_uv, prod)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=6),
       st.sampled_from([super_line, exterior_two, color_pair]))
def test_confluence_of_strategies(word, factory):
    sym = factory()
    left = sym.normal_form(tuple(word), strategy="leftmost")
    right = sym.normal_form(tuple(word), strategy="rightmost")
    assert vec_equal(left, right)


def test_weighted_words():
    assert weighted_words(2, [1, 2], 2) == [(0, 0), (1,)]
    assert weighted_words(1, [1], 3) == [(0, 0, 0)]


def test_tensor_ideal_complement_matches_monomials():
    sym = exterior_two()
    words, pivots, complement = tensor_ideal_complement(sym.braiding(), [1, 1], 2)
    assert complement == [(0, 1)]


def test_tensor_ideal_complement_prefers_nondecreasing_words():
    for factory in CORPUS:
        sym = factory()
        for n in range(4):
            _, _, complement = tensor_ideal_complement(sym.braiding(), [1] * sym.dim, n)
            assert sorted(complement) == sorted(sym.basis_in_degree(n)), (factory.__name__, n)


def test_monomial_str():
    names = super_line().names
    assert monomial_str(names, ()) == "1"
    assert monomial_str(names, (0, 0, 1)) == "x^2*th"
    assert monomial_str(("g", "x"), (0, 0, 1, 1, 1)) == "g^2*x^3"
