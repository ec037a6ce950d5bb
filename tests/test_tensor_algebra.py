import random

import pytest

from braidpbw.braided_space import (
    Bicharacter,
    FiniteAbelianGroup,
    GenericBraiding,
    GradedBasis,
    diagonal_braiding,
)
from braidpbw.multilinear import braid_at, mul_at, vec_equal
from braidpbw.scalars import MINUS_ONE, ONE, Scalar
from reference_checkers import (
    FreeAlgebra,
    check_square_commutator_expansion,
    lift,
    slot_commutator,
    square_commutator_expansion_sides,
    tensor,
    unlift,
    vsub,
)
from test_symmetric_algebra import FOUR_POINT, LYUBASHENKO_3


def super_algebra():
    g = FiniteAbelianGroup((2,))
    chi = Bicharacter(g, ((MINUS_ONE,),))
    basis = GradedBasis(("x", "th"), ((0,), (1,)))
    return FreeAlgebra(diagonal_braiding(chi, basis))


def color_algebra():
    g = FiniteAbelianGroup((2, 2))
    chi = Bicharacter(g, ((ONE, MINUS_ONE), (MINUS_ONE, ONE)))
    basis = GradedBasis(("x", "y"), ((1, 0), (0, 1)))
    return FreeAlgebra(diagonal_braiding(chi, basis))


def trivial_algebra(d=2):
    return FreeAlgebra(GenericBraiding.flip(d))


# two involutive set-theoretic solutions: symmetric braidings that are not diagonal
def four_point_algebra():
    return FreeAlgebra(FOUR_POINT)


def lyubashenko_3_algebra():
    return FreeAlgebra(LYUBASHENKO_3)


SET_THEORETIC_FACTORIES = [four_point_algebra, lyubashenko_3_algebra]


def test_apply_ci_flip():
    alg = trivial_algebra()
    out = alg.apply_ci({(0, 1): ONE}, 1)
    assert out == {(1, 0): ONE}


def test_apply_ci_super_sign():
    alg = super_algebra()
    out = alg.apply_ci({(1, 1): ONE}, 1)
    assert out == {(1, 1): MINUS_ONE}


def test_apply_ci_twice_symmetric():
    alg = super_algebra()
    e = {(1, 0, 1): ONE}
    assert vec_equal(alg.apply_ci(alg.apply_ci(e, 2), 2), e)


def test_apply_ci_out_of_range():
    alg = trivial_algebra()
    with pytest.raises(ValueError):
        alg.apply_ci({(0, 1): ONE}, 2)


def test_block_braiding_single_pair_is_braiding():
    alg = super_algebra()
    assert alg.block_braiding(1, 1, {(1, 1): ONE}) == {(1, 1): MINUS_ONE}


def test_block_braiding_trivial_is_block_flip():
    alg = trivial_algebra(3)
    out = alg.block_braiding(2, 1, {(0, 1, 2): ONE})
    assert out == {(2, 0, 1): ONE}
    out = alg.block_braiding(1, 2, {(0, 1, 2): ONE})
    assert out == {(1, 2, 0): ONE}


def super_parity(word):
    return sum(1 for i in word if i == 1)


def test_block_braiding_super_sign_oracle():
    # oracle: the sign is (-1)^(odd letters left x odd letters right)
    alg = super_algebra()
    random.seed(1)
    for _ in range(60):
        n = random.randint(1, 2)
        m = random.randint(1, 2)
        u = tuple(random.randrange(2) for _ in range(n))
        v = tuple(random.randrange(2) for _ in range(m))
        out = alg.block_braiding(n, m, {u + v: ONE})
        sign = (-1) ** (super_parity(u) * super_parity(v))
        expected = {v + u: Scalar.from_rational(sign)}
        assert vec_equal(out, expected), (u, v)


def test_block_braiding_example_from_super_line():
    alg = super_algebra()
    out = alg.block_braiding(1, 2, {(1, 1, 0): ONE})
    assert out == {(1, 0, 1): MINUS_ONE}


def _braid_pair_op(alg, w, pos):
    return braid_at(alg, w, pos)


@pytest.mark.parametrize("factory", [trivial_algebra, super_algebra, color_algebra,
                                     *SET_THEORETIC_FACTORIES])
def test_lifted_braiding_satisfies_braid_equation_to_degree_4(factory):
    alg = factory()
    d = alg.dim
    words = [(i,) for i in range(d)] + [(i, j) for i in range(d) for j in range(d)]
    random.seed(2)
    for _ in range(40):
        a, b, c = (random.choice(words) for _ in range(3))
        if len(a) + len(b) + len(c) > 4:
            continue
        w = {(a, b, c): ONE}
        lhs = _braid_pair_op(alg, _braid_pair_op(alg, _braid_pair_op(alg, w, 0), 1), 0)
        rhs = _braid_pair_op(alg, _braid_pair_op(alg, _braid_pair_op(alg, w, 1), 0), 1)
        assert vec_equal(lhs, rhs)


@pytest.mark.parametrize("factory", [trivial_algebra, super_algebra, color_algebra,
                                     *SET_THEORETIC_FACTORIES])
def test_free_algebra_braiding_compatibilities(factory):
    # braiding past a product equals braiding past both factors, to degree 3
    alg = factory()
    d = alg.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                w = {((i,), (j,), (k,)): ONE}
                lhs = braid_at(alg, mul_at(alg, w, 0), 0)
                rhs = mul_at(alg, braid_at(alg, braid_at(alg, w, 1), 0), 1)
                assert vec_equal(lhs, rhs)
                lhs2 = braid_at(alg, mul_at(alg, w, 1), 0)
                rhs2 = mul_at(alg, braid_at(alg, braid_at(alg, w, 0), 1), 0)
                assert vec_equal(lhs2, rhs2)


def test_commutator_trivial_braiding():
    alg = trivial_algebra()
    out = unlift(slot_commutator(alg, lift({(0,): ONE}), lift({(1,): ONE})))
    assert out == {(0, 1): ONE, (1, 0): MINUS_ONE}


def test_commutator_super_odd_square():
    alg = super_algebra()
    out = unlift(slot_commutator(alg, lift({(1,): ONE}), lift({(1,): ONE})))
    assert out == {(1, 1): Scalar.from_rational(2)}


def test_commutator_skew_symmetry_for_symmetric_braidings():
    # commutator composed with the braiding is minus the commutator
    alg = super_algebra()
    words = [(0,), (1,), (0, 1), (1, 1)]
    for u in words:
        for v in words:
            w = tensor(lift({u: ONE}), lift({v: ONE}))
            direct = mul_at(alg, vsub(w, braid_at(alg, w, 0)), 0)
            swapped = braid_at(alg, w, 0)
            via_swap = mul_at(alg, vsub(swapped, braid_at(alg, swapped, 0)), 0)
            assert vec_equal(direct, {k: -c for k, c in via_swap.items()})


def _random_homogeneous(alg, rng, max_degree=2):
    degree = rng.randint(1, max_degree)
    word = tuple(rng.randrange(alg.dim) for _ in range(degree))
    coeff = Scalar.from_rational(rng.randint(1, 3))
    out = {word: coeff}
    other = tuple(rng.randrange(alg.dim) for _ in range(degree))
    if other != word:
        out[other] = Scalar.from_rational(rng.randint(-2, 2))
    return {w: c for w, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("factory,seed", [
    (trivial_algebra, 11), (super_algebra, 12), (color_algebra, 13),
    (four_point_algebra, 14), (lyubashenko_3_algebra, 15),
])
def test_square_commutator_expansion_on_random_quadruples(factory, seed):
    alg = factory()
    rng = random.Random(seed)
    for _ in range(100):
        a, b, c, d = (lift(_random_homogeneous(alg, rng)) for _ in range(4))
        assert check_square_commutator_expansion(alg, a, b, c, d)


def test_square_commutator_expansion_trivial_closed_form():
    # with a trivial braiding the correction term vanishes and the identity
    # reduces to the classical product-rule expansion
    alg = trivial_algebra()
    x, y, z, w = ({(i % 2,): ONE} for i in range(4))
    lhs, rhs = square_commutator_expansion_sides(alg, lift(x), lift(y), lift(z), lift(w))
    assert vec_equal(lhs, rhs)


def test_square_commutator_mutation_detected():
    # dropping the opposite-product summand breaks the identity on odd letters
    alg = super_algebra()
    th = lift({(1,): ONE})
    lhs, rhs = square_commutator_expansion_sides(alg, th, th, th, th,
                                                 drop_opposite_term=True)
    assert not vec_equal(lhs, rhs)
