"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_N).

Every coefficient in the engine is a :class:`Scalar`: an element of
Q(zeta_N) in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1), stored as
integer coefficients ``num`` over one positive denominator ``den`` with
gcd(den, *num) == 1.  Since Z[zeta_N] is the ring of integers of Q(zeta_N),
``den`` is the least positive D with D*x in Z[zeta], whatever the field.
One routine, ``_reduce``, writes every sum of integer multiples of powers of
zeta_N in the power basis, reading zeta_N^e as row e mod N of N integer rows
(x^k modulo the monic N-th cyclotomic polynomial, 0 <= k < N).  An inverse is
the product of the other Galois conjugates over the integer norm, so the
arithmetic builds no Fraction.  Equality is exact and decidable; scalars whose
value is rational are renormalised to conductor 1 so they print as plain
fractions.  Mixed-conductor arithmetic goes through the compositum
Q(zeta_lcm).  A product of two non-rational scalars comes from a bounded memo
keyed on the factors' canonical fields (conductor, num, den), since the
engine's tables repeat a few distinct products many times.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

_F0 = Fraction(0)
_F1 = Fraction(1)


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials, ascending coefficients, monic divisor."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    assert den[dd] == 1
    out = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    assert all(v == 0 for v in num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial (monic)."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            poly = _int_polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k is x^k reduced modulo Phi_n, for 0 <= k < n (one period, as
    zeta_n^n = 1), as the (index, coefficient) pairs of its nonzero entries."""
    phi = euler_phi(n)
    phin = cyclotomic_polynomial(n)
    dense = [[1 if i == k else 0 for i in range(phi)] for k in range(phi)]
    for k in range(phi, n):
        prev = dense[k - 1]
        lead = prev[-1]
        dense.append([(prev[i - 1] if i else 0) - lead * phin[i] for i in range(phi)])
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in dense)


def _reduce(n: int, terms) -> list[int]:
    """sum c * zeta_n^e over the (e, c) pairs of terms, e >= 0, c an int, as
    phi(n) integer coefficients in the power basis; zeta_n^e is row e % n."""
    rows = _reduction_rows(n)
    out = [0] * euler_phi(n)
    for e, c in terms:
        if c:
            for t, r in rows[e % n]:
                out[t] += c * r
    return out


def _canonical(n: int, num, den: int) -> "Scalar":
    """The Scalar num/den in Q(zeta_n): gcd-reduced, rational values at conductor 1."""
    if n != 1 and not any(num[1:]):
        n, num = 1, num[:1]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [x // g for x in num]
    return Scalar(n, tuple(num), den)


@lru_cache(maxsize=None)
def _subfield_basis(n: int, m: int):
    """For m | n: pivot columns P such that the power basis of Q(zeta_m) in
    Q(zeta_n), as dense integer rows E, restricted to P is invertible, and
    that inverse (Fraction rows)."""
    phi, k = euler_phi(n), euler_phi(m)
    red = [[Fraction(c) for c in _reduce(n, ((i * (n // m), 1),))]
           + [_F1 if j == i else _F0 for j in range(k)] for i in range(k)]
    pivots: list[int] = []
    for col in range(phi):
        top = len(pivots)
        piv = next((r for r in range(top, k) if red[r][col]), None)
        if piv is None:
            continue
        red[top], red[piv] = red[piv], red[top]
        inv = 1 / red[top][col]
        red[top] = [x * inv for x in red[top]]
        for r in range(k):
            f = red[r][col]
            if r != top and f:
                red[r] = [x - f * y for x, y in zip(red[r], red[top])]
        pivots.append(col)
        if len(pivots) == k:
            break
    return tuple(pivots), [r[phi:] for r in red]


def _subfield_coordinates(n: int, m: int, num: tuple[int, ...]) -> list[int] | None:
    """Integer coordinates in Q(zeta_m) of the element of Q(zeta_n) with
    integer coefficients num, or None when it is not in Q(zeta_m).  They are
    integers because Z[zeta_n] meets Q(zeta_m) in Z[zeta_m]."""
    pivots, inv = _subfield_basis(n, m)
    coeffs = []
    for i in range(len(inv)):
        a = sum((num[p] * inv[r][i] for r, p in enumerate(pivots)), _F0)
        if a.denominator != 1:
            return None
        coeffs.append(a.numerator)
    back = _reduce(n, ((i * (n // m), a) for i, a in enumerate(coeffs)))
    return coeffs if tuple(back) == num else None


def _rational(num: int, den: int) -> "Scalar":
    g = gcd(num, den)
    return Scalar(1, (num // g,), den // g)


def _zmul(n: int, a, b) -> list[int]:
    """Product of two elements of Z[zeta_n], as integer coefficient sequences
    of length phi(n), reduced modulo the n-th cyclotomic polynomial."""
    phi = len(a)
    prod = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _reduce(n, enumerate(prod))


def _conjugate(n: int, k: int, num) -> list[int]:
    """sigma_k(num): the Galois automorphism zeta_n -> zeta_n^k, gcd(k, n) = 1,
    applied to an element of Z[zeta_n]."""
    return _reduce(n, ((i * k, c) for i, c in enumerate(num)))


class Scalar:
    """Element num/den of Q(zeta_N), reduced modulo the N-th cyclotomic polynomial.

    The constructor takes the canonical form as is: ``num`` a tuple of
    phi(N) ints, ``den`` > 0 with gcd(den, *num) == 1, and conductor 1 when
    the value is rational.  Build scalars with the ``from_*`` constructors,
    :func:`root_of_unity` or :func:`parse_scalar`.
    """

    __slots__ = ("conductor", "num", "den")
    __hash__ = None  # semantic equality across conductors; do not hash

    def __init__(self, conductor: int, num: tuple[int, ...], den: int):
        self.conductor = conductor
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Scalar":
        q = Fraction(q)
        return Scalar(1, (q.numerator,), q.denominator)

    @staticmethod
    def from_poly(n: int, coeffs) -> "Scalar":
        """Reduce an arbitrary-length coefficient sequence in zeta_n."""
        if n < 1:
            raise ValueError(f"conductor must be >= 1, got {n}")
        coeffs = [Fraction(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = lcm(den, c.denominator)
        return _canonical(n, _reduce(n, ((k, c.numerator * (den // c.denominator))
                                         for k, c in enumerate(coeffs))), den)

    def _num_in(self, m: int) -> tuple[int, ...]:
        """Integer coefficients of den*self in the power basis of Q(zeta_m)."""
        if m == self.conductor:
            return self.num
        if m % self.conductor:
            raise ValueError(f"no embedding of Q(zeta_{self.conductor}) into Q(zeta_{m})")
        step = m // self.conductor
        return tuple(_reduce(m, ((i * step, c) for i, c in enumerate(self.num))))

    def in_conductor(self, m: int) -> "Scalar":
        """Embed into Q(zeta_m); requires conductor | m."""
        if m == self.conductor:
            return self
        return _canonical(m, self._num_in(m), self.den)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num[0] and self.conductor == 1

    def is_one(self) -> bool:
        return self.conductor == 1 and self.num[0] == 1 and self.den == 1

    def __bool__(self) -> bool:
        return self.num[0] != 0 or self.conductor != 1

    # -- arithmetic ---------------------------------------------------------

    def _unify(self, other: "Scalar"):
        if self.conductor == other.conductor:
            return self.conductor, self.num, other.num
        n = lcm(self.conductor, other.conductor)
        return n, self._num_in(n), other._num_in(n)

    def _combine(self, other: "Scalar", sign: int) -> "Scalar":
        """self + sign * other when a conductor is above 1."""
        n, a, b = self._unify(other)
        p, q = self.den, other.den
        if p == q:
            return _canonical(n, [x + sign * y for x, y in zip(a, b)], p)
        return _canonical(n, [x * q + sign * p * y for x, y in zip(a, b)], p * q)

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.conductor == 1 == other.conductor:
            p, q = self.den, other.den
            if p == 1 == q:
                return Scalar(1, (self.num[0] + other.num[0],), 1)
            return _rational(self.num[0] * q + other.num[0] * p, p * q)
        return self._combine(other, 1)

    def __sub__(self, other: "Scalar") -> "Scalar":
        if self.conductor == 1 == other.conductor:
            p, q = self.den, other.den
            if p == 1 == q:
                return Scalar(1, (self.num[0] - other.num[0],), 1)
            return _rational(self.num[0] * q - other.num[0] * p, p * q)
        return self._combine(other, -1)

    def __neg__(self) -> "Scalar":
        if self.conductor == 1:
            return Scalar(1, (-self.num[0],), self.den)
        return Scalar(self.conductor, tuple(-x for x in self.num), self.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        # a factor of +-1 returns the other factor (or its negative) as it is:
        # scalars are immutable and both results are already canonical
        if self.conductor == 1:
            c = self.num[0]
            if self.den == 1 and (c == 1 or c == -1):
                return other if c == 1 else -other
            if not c:
                return ZERO
            if other.conductor == 1:
                d = other.num[0]
                if not d:
                    return ZERO
                p, q = self.den, other.den
                if q == 1 and (d == 1 or d == -1):
                    return self if d == 1 else -self
                if p == 1 == q:
                    return Scalar(1, (c * d,), 1)
                return _rational(c * d, p * q)
            return _canonical(other.conductor, [c * x for x in other.num], self.den * other.den)
        if other.conductor == 1:
            c = other.num[0]
            if other.den == 1 and (c == 1 or c == -1):
                return self if c == 1 else -self
            if not c:
                return ZERO
            return _canonical(self.conductor, [c * x for x in self.num], self.den * other.den)
        return _cyclotomic_product(self.conductor, self.num, self.den,
                                   other.conductor, other.num, other.den)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar 0 has no inverse")
        if self.conductor == 1:
            c = self.num[0]
            return Scalar(1, (self.den,), c) if c > 0 else Scalar(1, (-self.den,), -c)
        # (num/den)^-1 = den * prod_{k != 1} sigma_k(num) / N(num), over the
        # k in 1..n-1 prime to n; the norm N(num), the product of all the
        # conjugates, is a positive integer, since Q(zeta_n) for n >= 3 has
        # no real embedding and the conjugates come in complex-conjugate pairs
        n, num = self.conductor, self.num
        cofactor = [1] + [0] * (len(num) - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                cofactor = _zmul(n, cofactor, _conjugate(n, k, num))
        norm, *rest = _zmul(n, num, cofactor)
        assert norm > 0 and not any(rest), "the norm of a cyclotomic integer is a positive integer"
        return _canonical(n, [self.den * c for c in cofactor], norm)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, e: int) -> "Scalar":
        if e < 0:
            return self.inverse() ** (-e)
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.from_rational(other)
        if self.den != other.den:  # den does not depend on the field
            return False
        if self.conductor == other.conductor:
            return self.num == other.num
        n, a, b = self._unify(other)
        return a == b

    # -- printing / parsing -------------------------------------------------

    def _in_least_field(self) -> "Scalar":
        """The same value at the least divisor m of the conductor with self
        in Q(zeta_m); the least exists since Q(zeta_a) meets Q(zeta_b) in
        Q(zeta_gcd(a, b))."""
        n = self.conductor
        for m in divisors(n)[1:-1]:  # rational values are already at conductor 1
            coeffs = _subfield_coordinates(n, m, self.num)
            if coeffs is not None:
                return _canonical(m, coeffs, self.den)
        return self

    def __str__(self) -> str:
        if self.conductor == 1:
            return str(self.num[0]) if self.den == 1 else f"{self.num[0]}/{self.den}"
        x = self._in_least_field()
        return '{N:%d, poly:"%s"}' % (
            x.conductor, _poly_str([Fraction(c, x.den) for c in x.num]))

    def __repr__(self) -> str:
        return f"Scalar({self})"


# a benchmark pass's products of two non-rational scalars are at most a few
# hundred distinct ones; the bound caps the memo on larger inputs
@lru_cache(maxsize=4096)
def _cyclotomic_product(m: int, a: tuple[int, ...], p: int,
                        n: int, b: tuple[int, ...], q: int) -> Scalar:
    """The product of a/p in Q(zeta_m) and b/q in Q(zeta_n), m, n > 1, keyed
    on the two factors' canonical fields: a Scalar is unhashable, since its
    equality is semantic across conductors.  A hit returns the Scalar that
    the kernel (``__wrapped__``) returned for the same fields, shared since
    scalars are immutable."""
    k, u, v = Scalar(m, a, p)._unify(Scalar(n, b, q))
    return _canonical(k, _zmul(k, u, v), p * q)


ZERO = Scalar(1, (0,), 1)
ONE = Scalar(1, (1,), 1)
MINUS_ONE = Scalar(1, (-1,), 1)


def root_of_unity(n: int, k: int = 1) -> Scalar:
    """zeta_n^k, canonically reduced."""
    k %= max(n, 1)  # from_poly rejects n < 1
    return Scalar.from_poly(n, [0] * k + [1])


def _poly_str(coeffs) -> str:
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            term = str(c)
        else:
            z = "z" if k == 1 else f"z^{k}"
            if c == 1:
                term = z
            elif c == -1:
                term = "-" + z
            else:
                term = f"{c}*{z}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"


_SCALAR_OBJ_RE = re.compile(r'^\{\s*N\s*:\s*(\d+)\s*,\s*poly\s*:\s*"([^"]*)"\s*\}$')
_TERM_RE = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?(?:\*)?(z(?:\^(\d+))?)?$")


def _parse_poly(n: int, text: str) -> Scalar:
    s = text.replace(" ", "")
    if s in ("", "0"):
        return ZERO
    coeffs: dict[int, Fraction] = {}
    for term in re.findall(r"[+-]?[^+-]+", s):
        m = _TERM_RE.match(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse scalar term {term!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = Fraction(m.group(2)) if m.group(2) else _F1
        if m.group(3) is None:
            exp = 0
        else:
            exp = int(m.group(4)) if m.group(4) else 1
        coeffs[exp] = coeffs.get(exp, _F0) + sign * coeff
    top = max(coeffs)
    return Scalar.from_poly(n, [coeffs.get(i, _F0) for i in range(top + 1)])


def parse_scalar(text: str) -> Scalar:
    if not isinstance(text, str):
        raise ValueError(f"malformed scalar string {text!r}")
    s = text.strip()
    if s.startswith("{"):
        m = _SCALAR_OBJ_RE.match(s)
        if not m:
            raise ValueError(f"malformed scalar string {text!r}")
        return _parse_poly(int(m.group(1)), m.group(2))
    try:
        return Scalar.from_rational(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed scalar string {text!r}") from exc
