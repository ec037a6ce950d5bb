from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpbw.braided_space import (
    Bicharacter,
    FiniteAbelianGroup,
    GenericBraiding,
    GradedBasis,
    braid_check,
    diagonal_braiding,
    is_categorical,
    is_symmetric,
    validate_bicharacter,
)
from braidpbw.linalg import Subspace
from braidpbw.scalars import MINUS_ONE, ONE, root_of_unity


def super_bicharacter():
    g = FiniteAbelianGroup((2,))
    return Bicharacter(g, ((MINUS_ONE,),))


def test_validate_super():
    assert validate_bicharacter(super_bicharacter()).ok


def test_validate_order_violation():
    g = FiniteAbelianGroup((2,))
    chi = Bicharacter(g, ((root_of_unity(3),),))
    report = validate_bicharacter(chi)
    assert not report.ok
    assert any(v.axiom == "value-order" for v in report.violations)


def test_validate_skew_violation():
    g = FiniteAbelianGroup((4, 4))
    z4 = root_of_unity(4)
    chi = Bicharacter(g, ((ONE, z4), (z4, ONE)))
    report = validate_bicharacter(chi)
    assert any(v.axiom == "skew-symmetry" for v in report.violations)


def test_diagonal_braiding_super_sign():
    chi = super_bicharacter()
    basis = GradedBasis(("th",), ((1,),))
    c = diagonal_braiding(chi, basis)
    assert c.rows[0][0] == {(0, 0): MINUS_ONE}


def test_diagonal_braiding_trivial_is_flip():
    g = FiniteAbelianGroup((2,))
    chi = Bicharacter(g, ((ONE,),))
    basis = GradedBasis(("x", "y"), ((0,), (0,)))
    c = diagonal_braiding(chi, basis)
    for i in range(2):
        for j in range(2):
            assert c.rows[i][j] == {(j, i): ONE}


def test_diagonal_braiding_two_generators():
    g = FiniteAbelianGroup((3, 3))
    z3 = root_of_unity(3)
    chi = Bicharacter(g, ((ONE, z3), (z3 ** 2, ONE)))
    basis = GradedBasis(("x", "y"), ((1, 0), (0, 1)))
    c = diagonal_braiding(chi, basis)
    assert c.rows[0][1] == {(1, 0): z3}
    assert c.rows[1][0] == {(0, 1): z3 ** 2}


def test_diagonal_braiding_rejects_invalid():
    g = FiniteAbelianGroup((2,))
    chi = Bicharacter(g, ((root_of_unity(3),),))
    with pytest.raises(ValueError):
        diagonal_braiding(chi, GradedBasis(("x",), ((1,),)))


def test_braid_check_flip():
    assert braid_check(GenericBraiding.flip(2))


def test_braid_check_counterexample():
    # flip except on (0, 0), where an extra summand lands on (0, 1)
    rows = [[{(j, i): ONE} for j in range(2)] for i in range(2)]
    rows[0][0] = {(0, 0): ONE, (0, 1): ONE}
    assert not braid_check(GenericBraiding(rows))


def test_braid_check_flip_plus_diagonal_nilpotent_passes():
    # perturbing the flip by e0 (x) e0 -> e1 (x) e1 still solves the braid
    # equation (direct evaluation on all eight basis triples confirms it),
    # so it must not be used as a negative control
    rows = [[{(j, i): ONE} for j in range(2)] for i in range(2)]
    rows[0][0] = {(0, 0): ONE, (1, 1): ONE}
    assert braid_check(GenericBraiding(rows))


def test_is_symmetric_non_skew_diagonal():
    z3 = root_of_unity(3)
    q = [[ONE, z3], [z3, ONE]]
    c = GenericBraiding.diagonal(q)
    assert braid_check(c)
    assert not is_symmetric(c)


def _line(coefs, dim):
    return Subspace.span(dim, [coefs])


def test_is_categorical_whole_space_and_lines():
    q = [[ONE, ONE], [ONE, MINUS_ONE]]
    c = GenericBraiding.diagonal(q)
    assert is_categorical(c, Subspace.span(2, [{i: ONE} for i in range(2)]))
    assert is_categorical(c, _line({0: ONE}, 2))
    assert is_categorical(c, _line({1: ONE}, 2))


def test_is_categorical_checks_every_leg():
    # c(e0 (x) e0) = e0 (x) e1 - e1 (x) e1 + e1 (x) e0 leaves both
    # X (x) V and V (x) X for the line X through e0, although the
    # components outside cancel when summed over the other leg
    c = GenericBraiding([[{(0, 1): ONE, (1, 1): MINUS_ONE, (1, 0): ONE}, {(1, 0): ONE}],
                         [{(0, 1): ONE}, {(1, 1): ONE}]])
    assert not is_categorical(c, _line({0: ONE}, 2))


def test_is_categorical_mixed_line_fails():
    # q(0,0)=1, q(1,1)=-1, off-diagonal 1: the line through e0+e1 is not stable
    q = [[ONE, ONE], [ONE, MINUS_ONE]]
    c = GenericBraiding.diagonal(q)
    assert not is_categorical(c, _line({0: ONE, 1: ONE}, 2))


def test_categorical_pair_exchange():
    # for categorical X, Y the braiding maps X (x) Y into Y (x) X
    from braidpbw.multilinear import braid_at
    from reference_checkers import lift, pair_ops, tensor

    q = [[ONE, MINUS_ONE, ONE], [MINUS_ONE, ONE, ONE], [ONE, ONE, MINUS_ONE]]
    c = GenericBraiding.diagonal(q)
    x = {0: ONE}
    y = {1: ONE, 2: ONE}
    image = braid_at(pair_ops(c), tensor(lift(x), lift(y)), 0)
    for (a, b) in image:
        assert b == 0 and a in (1, 2)


factor_lists = st.lists(st.sampled_from([2, 3, 4, 6]), min_size=1, max_size=3)


@st.composite
def skew_bicharacters(draw):
    factors = tuple(draw(factor_lists))
    g = FiniteAbelianGroup(factors)
    r = len(factors)
    table = [[ONE] * r for _ in range(r)]
    for i in range(r):
        if factors[i] % 2 == 0:
            table[i][i] = MINUS_ONE if draw(st.booleans()) else ONE
        for j in range(i + 1, r):
            m = gcd(factors[i], factors[j])
            k = draw(st.integers(min_value=0, max_value=m - 1))
            table[i][j] = root_of_unity(m, k)
            table[j][i] = root_of_unity(m, -k)
    return g, Bicharacter(g, tuple(tuple(row) for row in table))


@settings(max_examples=30, deadline=None)
@given(skew_bicharacters())
def test_skew_bicharacters_give_symmetric_braidings(data):
    g, chi = data
    assert validate_bicharacter(chi).ok
    basis = GradedBasis(
        tuple(f"x{i}" for i in range(g.rank)),
        tuple(tuple(1 if j == i else 0 for j in range(g.rank)) for i in range(g.rank)),
    )
    c = diagonal_braiding(chi, basis)
    assert braid_check(c)
    assert is_symmetric(c)


@settings(max_examples=30, deadline=None)
@given(skew_bicharacters(), st.integers(min_value=1, max_value=5))
def test_corrupted_tables_give_non_symmetric_braidings(data, shift):
    # break skew-symmetry at one off-diagonal entry; the square of the
    # braiding then scales that pair by a nontrivial root of unity
    g, chi = data
    factors = g.invariant_factors
    r = g.rank
    target = None
    for i in range(r):
        for j in range(r):
            if i != j and factors[i] % 2 == 0 and factors[j] % 2 == 0:
                target = (i, j)
                break
        if target:
            break
    if target is None:
        return
    i, j = target
    table = [list(row) for row in chi.table]
    table[i][j] = table[i][j] * MINUS_ONE
    broken = Bicharacter(g, tuple(tuple(row) for row in table))
    assert not validate_bicharacter(broken).ok
    basis = GradedBasis(
        tuple(f"x{t}" for t in range(r)),
        tuple(tuple(1 if s == t else 0 for s in range(r)) for t in range(r)),
    )
    d = basis.dim
    q = [[broken.value(basis.degrees[a], basis.degrees[b]) for b in range(d)] for a in range(d)]
    assert not is_symmetric(GenericBraiding.diagonal(q))


def test_non_skew_gives_non_symmetric():
    g = FiniteAbelianGroup((3, 3))
    z3 = root_of_unity(3)
    chi = Bicharacter(g, ((ONE, z3), (z3, ONE)))  # product is z3^2 != 1
    assert not validate_bicharacter(chi).ok
    basis = GradedBasis(("x", "y"), ((1, 0), (0, 1)))
    d = basis.dim
    q = [[chi.value(basis.degrees[i], basis.degrees[j]) for j in range(d)] for i in range(d)]
    assert not is_symmetric(GenericBraiding.diagonal(q))


def test_bicharacter_bimultiplicative():
    g = FiniteAbelianGroup((4,))
    z4 = root_of_unity(4)
    chi = Bicharacter(g, ((z4,),))
    assert chi.value((2,), (1,)) == z4 ** 2
    assert chi.value((3,), (2,)) == z4 ** 6
    assert chi.value((0,), (3,)).is_one()
