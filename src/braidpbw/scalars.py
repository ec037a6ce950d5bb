"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_N).

Every coefficient in the engine is a :class:`Scalar`: an element of
Q(zeta_N) stored as the canonical reduction of a polynomial in zeta_N
modulo the N-th cyclotomic polynomial.  Equality is exact and decidable;
scalars whose value is rational are renormalised to conductor 1 so they
print as plain fractions.  Mixed-conductor arithmetic goes through the
compositum Q(zeta_lcm).
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
def _reduction_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row k is x^k reduced modulo Phi_n, for 0 <= k <= max(n, 2 phi(n) - 2)."""
    phi = euler_phi(n)
    top = max(n, 2 * phi - 2)
    phin = cyclotomic_polynomial(n)
    rows: list[tuple[Fraction, ...]] = []
    for k in range(phi):
        rows.append(tuple(_F1 if i == k else _F0 for i in range(phi)))
    for k in range(phi, top + 1):
        prev = rows[k - 1]
        lead = prev[-1]
        shifted = (_F0,) + prev[:-1]
        if lead:
            rows.append(tuple(shifted[i] - lead * phin[i] for i in range(phi)))
        else:
            rows.append(shifted)
    return tuple(rows)


# ---------------------------------------------------------------------------
# polynomial helpers over Fraction (ascending coefficient lists)
# ---------------------------------------------------------------------------

def _pdeg(p: list[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _psub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_F0] * (n - len(a))
    b = b + [_F0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _pdivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    db = _pdeg(b)
    assert db >= 0
    rem = list(a)
    dq = _pdeg(rem) - db
    if dq < 0:
        return [_F0], rem
    quo = [_F0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + db] / b[db]
        quo[k] = c
        if c:
            for i in range(db + 1):
                rem[k + i] -= c * b[i]
    return quo, rem


class Scalar:
    """Element of Q(zeta_N), reduced modulo the N-th cyclotomic polynomial."""

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # semantic equality across conductors; do not hash

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        if conductor != 1 and not any(coeffs[1:]):
            conductor, coeffs = 1, (coeffs[0],)
        self.conductor = conductor
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Scalar":
        return Scalar(1, (Fraction(q),))

    @staticmethod
    def from_poly(n: int, coeffs) -> "Scalar":
        """Reduce an arbitrary-length coefficient sequence in zeta_n."""
        if n < 1:
            raise ValueError(f"conductor must be >= 1, got {n}")
        phi = euler_phi(n)
        rows = _reduction_rows(n)
        out = [_F0] * phi
        for k, c in enumerate(coeffs):
            if c:
                c = Fraction(c)
                row = rows[k] if k < len(rows) else rows[k % n]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return Scalar(n, tuple(out))

    def _coeffs_in(self, m: int) -> tuple[Fraction, ...]:
        """Raw coefficient tuple of length phi(m) representing self in Q(zeta_m)."""
        if m == self.conductor:
            return self.coeffs
        if m % self.conductor:
            raise ValueError(f"no embedding of Q(zeta_{self.conductor}) into Q(zeta_{m})")
        step = m // self.conductor
        phi = euler_phi(m)
        rows = _reduction_rows(m)
        out = [_F0] * phi
        for i, c in enumerate(self.coeffs):
            if c:
                k = i * step
                row = rows[k] if k < len(rows) else rows[k % m]
                for t in range(phi):
                    if row[t]:
                        out[t] += c * row[t]
        return tuple(out)

    def in_conductor(self, m: int) -> "Scalar":
        """Embed into Q(zeta_m); requires conductor | m."""
        if m == self.conductor:
            return self
        return Scalar(m, self._coeffs_in(m))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def _unify(self, other: "Scalar"):
        if self.conductor == other.conductor:
            return self.conductor, self.coeffs, other.coeffs
        n = lcm(self.conductor, other.conductor)
        return n, self._coeffs_in(n), other._coeffs_in(n)

    def __add__(self, other: "Scalar") -> "Scalar":
        n, a, b = self._unify(other)
        return Scalar(n, tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "Scalar") -> "Scalar":
        n, a, b = self._unify(other)
        return Scalar(n, tuple(x - y for x, y in zip(a, b)))

    def __neg__(self) -> "Scalar":
        return Scalar(self.conductor, tuple(-x for x in self.coeffs))

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.conductor == 1:
            c = self.coeffs[0]
            if not c:
                return ZERO
            return Scalar(other.conductor, tuple(c * x for x in other.coeffs))
        if other.conductor == 1:
            c = other.coeffs[0]
            if not c:
                return ZERO
            return Scalar(self.conductor, tuple(c * x for x in self.coeffs))
        n, a, b = self._unify(other)
        phi = len(a)
        rows = _reduction_rows(n)
        out = [_F0] * phi
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        k = i + j
                        c = x * y
                        if k < phi:
                            out[k] += c
                        else:
                            row = rows[k]
                            for t in range(phi):
                                if row[t]:
                                    out[t] += c * row[t]
        return Scalar(n, tuple(out))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar 0 has no inverse")
        if self.conductor == 1:
            return Scalar(1, (_F1 / self.coeffs[0],))
        n = self.conductor
        phin = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r0, s0 = phin, [_F0]
        r1, s1 = list(self.coeffs), [_F1]
        while _pdeg(r1) >= 0:
            q, rem = _pdivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        c = r0[_pdeg(r0)]
        assert _pdeg(r0) == 0, "cyclotomic polynomial must be coprime to nonzero element"
        return Scalar.from_poly(n, [x / c for x in s0])

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
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        n, a, b = self._unify(other)
        return a == b

    def multiplicative_order(self, bound: int = 10_000) -> int | None:
        """Smallest k >= 1 with self**k == 1, or None if not found within bound."""
        acc = ONE
        for k in range(1, bound + 1):
            acc = acc * self
            if acc.is_one():
                return k
        return None

    # -- printing / parsing -------------------------------------------------

    def __str__(self) -> str:
        if self.conductor == 1:
            return str(self.coeffs[0])
        return '{N:%d, poly:"%s"}' % (self.conductor, _poly_str(self.coeffs))

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar(1, (_F0,))
ONE = Scalar(1, (_F1,))
MINUS_ONE = Scalar(1, (-_F1,))


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
