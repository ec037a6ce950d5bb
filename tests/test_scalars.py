from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpbw.scalars import (
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    cyclotomic_polynomial,
    euler_phi,
    parse_scalar,
    root_of_unity,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12])


@st.composite
def scalars(draw):
    n = draw(conductors)
    coeffs = draw(st.lists(rationals, min_size=1, max_size=4))
    return Scalar.from_poly(n, coeffs)


def test_rational_addition():
    assert Scalar.from_rational(Fraction(1, 2)) + Scalar.from_rational(Fraction(1, 3)) == Fraction(5, 6)


def test_root_sums_and_products():
    z3 = root_of_unity(3)
    z4 = root_of_unity(4)
    assert z4 + z4 == z4 * Scalar.from_rational(2)
    assert z3 + z3 * z3 == -1  # the conductor-3 relation
    assert (root_of_unity(2) * root_of_unity(2)).is_one()
    assert z4 * z4 == -1
    assert z3 * z3 == Scalar.from_poly(3, [-1, -1])


def test_root_of_unity_values():
    assert root_of_unity(1, 0).is_one()
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(6, 3) == -1


def test_inverse_examples():
    assert Scalar.from_rational(2).inverse() == Fraction(1, 2)
    z4 = root_of_unity(4)
    assert z4.inverse() == -z4
    a = ONE + root_of_unity(3)
    assert (a * a.inverse()).is_one()  # multiply-back oracle


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


@pytest.mark.parametrize("n", range(1, 25))
def test_roots_satisfy_their_cyclotomic_polynomial(n):
    z = root_of_unity(n)
    assert (z ** n).is_one()
    acc = ZERO
    for k, c in enumerate(cyclotomic_polynomial(n)):
        acc = acc + Scalar.from_rational(c) * z ** k
    assert acc.is_zero()
    assert z.multiplicative_order(2 * n) == n


@pytest.mark.parametrize("n,k,order", [(6, 3, 2), (6, 2, 3), (12, 8, 3), (8, 6, 4)])
def test_root_power_orders(n, k, order):
    assert root_of_unity(n, k).multiplicative_order(2 * n) == order


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_inverse_roundtrip(a):
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 2), (2, 4), (3, 6), (3, 12), (4, 12), (6, 12)]),
       st.lists(rationals, min_size=1, max_size=3),
       st.lists(rationals, min_size=1, max_size=3))
def test_embedding_commutes_with_arithmetic(pair, xs, ys):
    m, n = pair
    a = Scalar.from_poly(m, xs)
    b = Scalar.from_poly(m, ys)
    assert (a + b).in_conductor(n) == a.in_conductor(n) + b.in_conductor(n)
    assert (a * b).in_conductor(n) == a.in_conductor(n) * b.in_conductor(n)
    assert a.in_conductor(n) == a  # embedding preserves the value


def test_euler_phi_values():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 6, 8, 12, 24)] == [1, 1, 2, 2, 2, 4, 4, 8]


def test_string_roundtrip():
    cases = [
        Scalar.from_rational(Fraction(-7, 3)),
        root_of_unity(3) * Scalar.from_rational(Fraction(1, 2)) + ONE,
        root_of_unity(12, 5),
        ZERO,
        MINUS_ONE,
    ]
    for s in cases:
        assert parse_scalar(str(s)) == s


def test_parse_fixed_format():
    s = parse_scalar('{N:3, poly:"-1-z"}')
    assert s == root_of_unity(3) ** 2
    assert parse_scalar("5/6") == Fraction(5, 6)
    with pytest.raises(ValueError):
        parse_scalar("{N:3, poly}")
    with pytest.raises(ValueError):
        parse_scalar("spam")


def test_rational_values_print_as_fractions():
    z6 = root_of_unity(6)
    assert str(z6 ** 3) == "-1"
    assert str(z6 * z6 * z6 * z6 * z6 * z6) == "1"
