from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpbw.scalars import (
    MINUS_ONE,
    ONE,
    ZERO,
    Scalar,
    _conjugate,
    _cyclotomic_product,
    _poly_str,
    _reduction_rows,
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
    assert not any((z ** k).is_one() for k in range(1, n))  # primitive: order exactly n


@pytest.mark.parametrize("n,k,order", [(6, 3, 2), (6, 2, 3), (12, 8, 3), (8, 6, 4)])
def test_root_power_orders(n, k, order):
    z = root_of_unity(n, k)
    assert [e for e in range(1, 2 * n + 1) if (z ** e).is_one()][0] == order


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


# ---------------------------------------------------------------------------
# Independent oracle: Fraction polynomials reduced by long division mod Phi_n.
# Nothing below reads engine arithmetic; the engine is compared against it.
# ---------------------------------------------------------------------------

def _ref_divmod(a, b):
    rem = list(a)
    while rem and rem[-1] == 0:
        rem.pop()
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 1)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] -= c * y
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem


@lru_cache(maxsize=None)
def _ref_cyclotomic(n):
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly = _ref_divmod(poly, _ref_cyclotomic(d))[0]
    return tuple(poly)


def _ref_reduce(poly, n):
    """Coefficients of poly(zeta_n) in the power basis, length deg Phi_n."""
    phin = _ref_cyclotomic(n)
    rem = _ref_divmod([Fraction(c) for c in poly], phin)[1]
    return rem + [Fraction(0)] * (len(phin) - 1 - len(rem))


def _ref_embed(coeffs, n, m):
    step = m // n
    poly = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    for k, c in enumerate(coeffs):
        poly[k * step] = c
    return _ref_reduce(poly, m)


def _ref_mul(a, b, n):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, n)


def _ref_solve(target, cols):
    """x with sum_i x_i cols[i] == target, for linearly independent cols, by
    Gauss-Jordan elimination; None when the system has no solution."""
    k = len(cols)
    rows = [[col[r] for col in cols] + [target[r]] for r in range(len(target))]
    for c in range(k):
        p = next(r for r in range(c, len(rows)) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    if any(row[k] for row in rows[k:]):
        return None
    return [row[k] for row in rows[:k]]


def _ref_str(coeffs, n):
    """The value printed in the least field Q(zeta_m), m | n, that holds it."""
    for m in range(1, n + 1):
        if n % m == 0:
            phi = len(_ref_cyclotomic(m)) - 1
            sub = _ref_solve(coeffs, [_ref_embed([0] * i + [1], m, n) for i in range(phi)])
            if sub is not None:
                break
    if m == 1:
        return str(sub[0])
    return '{N:%d, poly:"%s"}' % (m, _poly_str(sub))


def _coeffs_at(s, n):
    """Fraction coefficients of the Scalar s, read at its own conductor or at 1."""
    values = [Fraction(c, s.den) for c in s.num]
    assert s.conductor in (1, n)
    return values + [Fraction(0)] * (len(_ref_cyclotomic(n)) - 1 - len(values))


mixed_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
all_conductors = st.integers(min_value=1, max_value=12)


@st.composite
def poly_operands(draw):
    n = draw(all_conductors)
    xs = draw(st.lists(mixed_rationals, min_size=1, max_size=6))
    return n, xs


@settings(max_examples=150, deadline=None)
@given(poly_operands(), poly_operands())
def test_arithmetic_against_fraction_oracle(pa, pb):
    (n, xs), (m, ys) = pa, pb
    a, b = Scalar.from_poly(n, xs), Scalar.from_poly(m, ys)
    ra, rb = _ref_reduce(xs, n), _ref_reduce(ys, m)
    assert _coeffs_at(a, n) == ra and _coeffs_at(b, m) == rb
    assert str(a) == _ref_str(ra, n) and str(b) == _ref_str(rb, m)
    # the operands live at their engine conductors (rationals at 1)
    ra, rb = ra[:len(a.num)], rb[:len(b.num)]
    k = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
    ea, eb = _ref_embed(ra, a.conductor, k), _ref_embed(rb, b.conductor, k)
    for got, want in ((a * b, _ref_mul(ea, eb, k)),
                      (a + b, [x + y for x, y in zip(ea, eb)]),
                      (a - b, [x - y for x, y in zip(ea, eb)])):
        assert _coeffs_at(got, k) == want
        assert str(got) == _ref_str(want, k)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.lists(mixed_rationals, min_size=1, max_size=9))
def test_inverse_against_fraction_oracle(n, xs):
    """x * x^-1 = 1, the product taken by the Fraction oracle."""
    x = Scalar.from_poly(n, xs)
    if x.is_zero():
        return
    inv = x.inverse()
    k = x.conductor
    prod = _ref_mul(_coeffs_at(x, k), _coeffs_at(inv, k), k)
    assert prod == [1] + [0] * (len(prod) - 1)


@pytest.mark.parametrize("n", range(1, 25))
def test_powers_past_two_periods_against_fraction_oracle(n):
    """zeta_n^e for e < 3n, each a single term read from one period of rows."""
    assert len(_reduction_rows(n)) == n
    for e in range(3 * n):
        x = Scalar.from_poly(n, [0] * e + [1])
        assert _coeffs_at(x, n) == _ref_reduce([0] * e + [1], n), e


@pytest.mark.parametrize("n", range(1, 25))
def test_conjugation_against_fraction_oracle(n):
    """sigma_k maps zeta_n^i to zeta_n^(i k); the oracle divides the whole
    polynomial sum num[i] x^(i k) by Phi_n."""
    phi = euler_phi(n)
    num = [(-1) ** i * (i + 1) for i in range(phi)]
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            poly = [0] * ((phi - 1) * k + 1)
            for i, c in enumerate(num):
                poly[i * k] = c
            assert _conjugate(n, k, num) == _ref_reduce(poly, n), k


def _assert_canonical(s):
    assert s.den > 0 and gcd(s.den, *s.num) == 1
    assert all(type(c) is int for c in s.num) and type(s.den) is int
    assert len(s.num) == euler_phi(s.conductor)
    assert (s.conductor == 1) == (not any(s.num[1:]))  # rational values at conductor 1
    if s.is_zero():
        assert (s.conductor, s.num, s.den) == (1, (0,), 1)


@settings(max_examples=80, deadline=None)
@given(poly_operands(), poly_operands())
def test_results_are_canonical(pa, pb):
    a, b = Scalar.from_poly(*pa), Scalar.from_poly(*pb)
    results = [a, b, a * b, a + b, a - b, -a, a - a, b * ZERO]
    if not a.is_zero():
        results += [a.inverse(), a * a.inverse(), b / a]
    for s in results:
        _assert_canonical(s)
    assert (a - a).is_zero() and (a * ZERO).is_zero()
    if not a.is_zero():
        assert (a * a.inverse()).num == (1,) and (a * a.inverse()).conductor == 1


@settings(max_examples=80, deadline=None)
@given(poly_operands(), st.integers(min_value=1, max_value=4))
def test_denominator_does_not_depend_on_the_field(pa, mult):
    """den is the least D with D*a integral, in Q(zeta_n) and in every Q(zeta_mn);
    so unequal denominators prove unequal values across conductors."""
    a = Scalar.from_poly(*pa)
    n = a.conductor
    for m in {n, n * mult, 2 * n, 3 * n}:
        e = a.in_conductor(m)
        _assert_canonical(e)
        assert e == a and e.den == a.den
        ref = _ref_embed([Fraction(c, a.den) for c in a.num], n, m)
        least = 1
        for c in ref:
            least = least * c.denominator // gcd(least, c.denominator)
        assert least == a.den
        assert _coeffs_at(e, m) == ref


@settings(max_examples=80, deadline=None)
@given(poly_operands(), poly_operands())
def test_cross_conductor_equality_against_oracle(pa, pb):
    a, b = Scalar.from_poly(*pa), Scalar.from_poly(*pb)
    k = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
    ea = _ref_embed([Fraction(c, a.den) for c in a.num], a.conductor, k)
    eb = _ref_embed([Fraction(c, b.den) for c in b.num], b.conductor, k)
    assert (a == b) == (ea == eb) == (a.in_conductor(k) == b.in_conductor(k))


@pytest.mark.parametrize("n,xs,m", [(3, [Fraction(1, 2), Fraction(1, 3)], 12),
                                    (4, [Fraction(-3, 4), Fraction(5, 6)], 12),
                                    (5, [0, Fraction(1, 10), 0, Fraction(-7, 15)], 10),
                                    (6, [Fraction(2, 9), Fraction(1, 6)], 12)])
def test_cross_conductor_equality_with_denominators(n, xs, m):
    a = Scalar.from_poly(n, xs)
    e = a.in_conductor(m)
    assert e.conductor == m and e.den == a.den > 1
    assert e == a and a == e
    assert e != a + Scalar.from_rational(Fraction(1, a.den))  # same den, other value
    assert e != a * Scalar.from_rational(Fraction(1, 2))  # other den


def test_equal_values_across_conductors():
    assert root_of_unity(6, 2) == root_of_unity(3)
    assert root_of_unity(12, 4) == root_of_unity(3) and root_of_unity(12, 3) == root_of_unity(4)
    assert root_of_unity(3) + root_of_unity(3, 2) == -1  # collapses to conductor 1
    assert (root_of_unity(3) + root_of_unity(3, 2)).conductor == 1
    assert root_of_unity(3) != root_of_unity(4)
    assert Scalar.from_poly(3, [Fraction(1, 2), Fraction(1, 2)]) != Scalar.from_poly(
        4, [Fraction(1, 2), Fraction(1, 2)])


CANONICAL_STRINGS = [
    (lambda: Scalar.from_rational(Fraction(-7, 3)), "-7/3"),
    (lambda: Scalar.from_rational(Fraction(6, 4)), "3/2"),
    (lambda: Scalar.from_rational(-12), "-12"),
    (lambda: ZERO, "0"),
    (lambda: MINUS_ONE, "-1"),
    (lambda: Scalar.from_poly(3, [Fraction(1, 2), Fraction(1, 3)]), '{N:3, poly:"1/2+1/3*z"}'),
    (lambda: -root_of_unity(12, 3), '{N:4, poly:"-z"}'),  # printed in the least field
    (lambda: root_of_unity(3) ** 2, '{N:3, poly:"-1-z"}'),
    (lambda: root_of_unity(6, 2), '{N:3, poly:"z"}'),
    (lambda: root_of_unity(4) * Scalar.from_rational(Fraction(-3, 4)), '{N:4, poly:"-3/4*z"}'),
    (lambda: Scalar.from_poly(12, [0, Fraction(2, 3), 0, Fraction(-5, 6)]),
     '{N:12, poly:"2/3*z-5/6*z^3"}'),
    (lambda: parse_scalar('{N:12, poly:"1/2*z^4"}'), '{N:3, poly:"1/2*z"}'),
    (lambda: (ONE + root_of_unity(3)).inverse(), '{N:3, poly:"-z"}'),
    (lambda: Scalar.from_poly(5, [2, 1]).inverse(), '{N:5, poly:"5/11-3/11*z+1/11*z^2-1/11*z^3"}'),
    (lambda: Scalar.from_rational(Fraction(2, 3)) * root_of_unity(3)
        + Scalar.from_rational(Fraction(1, 6)), '{N:3, poly:"1/6+2/3*z"}'),
]


@pytest.mark.parametrize("make,text", CANONICAL_STRINGS)
def test_canonical_strings(make, text):
    s = make()
    assert str(s) == text
    _assert_canonical(s)
    assert str(parse_scalar(text)) == text


def test_printed_form_does_not_depend_on_evaluation_order():
    z4, z3 = root_of_unity(4), root_of_unity(3)
    left, right = (z4 * z4.inverse()) * z3, z4 * (z4.inverse() * z3)
    assert (left.conductor, right.conductor) == (3, 12)
    assert str(left) == str(right) == '{N:3, poly:"z"}'


@settings(max_examples=80, deadline=None)
@given(poly_operands(), st.integers(min_value=1, max_value=4))
def test_printed_form_is_that_of_the_least_field(pa, k):
    x = Scalar.from_poly(*pa)
    assert str(x.in_conductor(k * x.conductor)) == str(x)
    assert parse_scalar(str(x)) == x


@settings(max_examples=100, deadline=None)
@given(poly_operands(), st.sampled_from([ONE, MINUS_ONE]), st.booleans())
def test_unit_factor_products_against_fraction_oracle(pa, unit, left):
    n, xs = pa
    x = Scalar.from_poly(n, xs)
    got = unit * x if left else x * unit
    want = [unit.num[0] * c for c in _ref_reduce(xs, n)]
    if not any(want[1:]):
        n, want = 1, want[:1]
    den = 1
    for c in want:
        den = den * c.denominator // gcd(den, c.denominator)
    assert (got.conductor, got.num, got.den) == (n, tuple(int(c * den) for c in want), den)


# ---------------------------------------------------------------------------
# The product memo: every product equals the kernel's, field for field.
# ---------------------------------------------------------------------------

_kernel = _cyclotomic_product.__wrapped__


def _fields(s):
    return s.conductor, s.num, s.den


def _kernel_fields(a, b):
    return _fields(_kernel(*_fields(a), *_fields(b)))


@settings(max_examples=150, deadline=None)
@given(poly_operands(), poly_operands())
def test_products_equal_the_uncached_kernel(pa, pb):
    a, b = Scalar.from_poly(*pa), Scalar.from_poly(*pb)
    want = _kernel_fields(a, b)
    first = a * b
    hits = _cyclotomic_product.cache_info().hits
    again = a * b
    assert _fields(first) == _fields(again) == want
    if a.conductor > 1 and b.conductor > 1:  # the repeat is read from the memo
        assert again is first
        assert _cyclotomic_product.cache_info().hits == hits + 1


def test_one_value_at_two_conductors_gets_its_own_product():
    z3 = root_of_unity(3)
    z3_at_12 = z3.in_conductor(12)
    assert z3_at_12 == z3 and z3_at_12.conductor == 12
    for order in ((z3, z3_at_12), (z3_at_12, z3)):
        _cyclotomic_product.cache_clear()
        for x in order:
            assert _fields(x * z3) == _kernel_fields(x, z3)
            assert _fields(z3 * x) == _kernel_fields(z3, x)
    assert (z3 * z3).conductor == 3 and (z3_at_12 * z3).conductor == 12
    assert z3_at_12 * z3 == z3 * z3
    # equal coefficients at other conductors: zeta_3, zeta_4 and zeta_6
    roots = [Scalar.from_poly(n, [0, 1]) for n in (3, 4, 6)]
    assert len({x.num for x in roots}) == 1
    assert [str(x * x) for x in roots] == ['{N:3, poly:"-1-z"}', "-1", '{N:3, poly:"z"}']
    for x in roots:
        assert _fields(x * x) == _kernel_fields(x, x)


def test_product_memo_stays_within_its_bound():
    bound = _cyclotomic_product.cache_info().maxsize
    # a + b zeta_3 with small a, b: 72 operands, 5184 distinct products
    values = [Scalar.from_poly(3, [a, b]) for a in range(-4, 5) for b in range(1, 9)]
    assert len(values) ** 2 > bound
    _cyclotomic_product.cache_clear()
    for x in values:
        for y in values:
            x * y
    info = _cyclotomic_product.cache_info()
    assert info.misses == len(values) ** 2 and info.currsize <= bound
    x, y = values[0], values[-1]
    assert _fields(x * y) == _kernel_fields(x, y)
