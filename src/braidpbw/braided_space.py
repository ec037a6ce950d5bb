"""Finite abelian groups, skew-symmetric bicharacters, and braidings.

Diagonal braidings come from bicharacters on a finite abelian group;
generic braidings are sparse rank-4 structure tensors.  Validators cover
the braid equation, symmetry, and compatibility of subspaces with the
braiding ("categorical" subspaces).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .linalg import Subspace
from .multilinear import compile_table, integral, vec_equal
from .reporting import InputError, ValidationReport
from .scalars import ONE, ZERO, Scalar

PairVec = dict


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups; elements are residue tuples."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        if any(n < 2 for n in self.invariant_factors):
            raise ValueError("invariant factors must be >= 2")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def normalize(self, element) -> tuple[int, ...]:
        if len(element) != self.rank:
            raise ValueError("element length does not match group rank")
        return tuple(int(e) % n for e, n in zip(element, self.invariant_factors))


@dataclass(eq=False)
class Bicharacter:
    """Pairing G x G -> scalars stored on generators, extended bimultiplicatively."""

    group: FiniteAbelianGroup
    table: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        r = self.group.rank
        if len(self.table) != r or any(len(row) != r for row in self.table):
            raise ValueError("bicharacter table does not match group rank")

    def value(self, a, b) -> Scalar:
        a = self.group.normalize(a)
        b = self.group.normalize(b)
        out = ONE
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out = out * self.table[i][j] ** (x * y)
        return out


@dataclass(frozen=True)
class GradedBasis:
    """Ordered generators with group degrees; declaration order is the well-order."""

    names: tuple[str, ...]
    degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")
        if len(self.names) != len(self.degrees):
            raise ValueError("names and degrees must align")

    @property
    def dim(self) -> int:
        return len(self.names)


@dataclass(eq=False)
class GenericBraiding:
    """Rank-4 structure tensor stored as its row table, the same shape as the
    product rows ``h.mult[i][j]``: rows[i][j] is the image c(e_i x e_j), a
    sparse 2-tensor mapping (k, l) to the coefficient of e_k x e_l, and {}
    where the image is zero.  The table is kept as a tuple of tuples.

    Its compiled rows and its two exhaustive verdicts, the braid equation
    (:attr:`satisfies_braid_equation`) and symmetry (:attr:`symmetric`), are
    derived on first use and kept, so a braiding shared by several objects
    is compiled and decided once."""

    rows: tuple[tuple[PairVec, ...], ...]

    def __post_init__(self):
        self.rows = tuple(tuple(row) for row in self.rows)
        if any(len(row) != len(self.rows) for row in self.rows):
            raise ValueError("braiding rows do not form a square table")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def lowered(self) -> tuple:
        """(braid, one): the compiled rows braid[i][j] = ((x, y, s), ...) with
        int coefficients and 1 when every coefficient is a rational integer,
        else with Scalars and ONE.  Derived once, for the exhaustive checkers."""
        ints = integral(self.rows)
        return compile_table(self.rows, ints), 1 if ints else ONE

    @cached_property
    def satisfies_braid_equation(self) -> bool:
        """:func:`braid_check` of this braiding, decided once."""
        return braid_check(self)

    @cached_property
    def symmetric(self) -> bool:
        """:func:`is_symmetric` of this braiding, decided once."""
        return is_symmetric(self)

    @staticmethod
    def flip(dim: int) -> "GenericBraiding":
        return GenericBraiding([[{(j, i): ONE} for j in range(dim)] for i in range(dim)])

    @staticmethod
    def diagonal(q: list[list[Scalar]]) -> "GenericBraiding":
        d = len(q)
        return GenericBraiding([[{} if q[i][j].is_zero() else {(j, i): q[i][j]}
                                 for j in range(d)] for i in range(d)])

    def diagonal_coefficients(self) -> list[list[Scalar]] | None:
        """The q-matrix when every row is a scalar multiple of the flip, else None."""
        q = [[ZERO for _ in range(self.dim)] for _ in range(self.dim)]
        for i, row in enumerate(self.rows):
            for j, entry in enumerate(row):
                for (k, l), c in entry.items():
                    if (k, l) != (j, i):
                        return None
                    q[i][j] = c
        return q


def validate_bicharacter(chi: Bicharacter) -> ValidationReport:
    """Check order constraints and skew-symmetry on the generator table."""
    report = ValidationReport("bicharacter")
    factors = chi.group.invariant_factors
    r = chi.group.rank
    for i in range(r):
        for j in range(r):
            g = gcd(factors[i], factors[j])
            report.checked += 1
            if not (chi.table[i][j] ** g).is_one():
                report.record("value-order", (i, j), str(chi.table[i][j] ** g), "1")
    for i in range(r):
        for j in range(r):
            report.checked += 1
            prod = chi.table[i][j] * chi.table[j][i]
            if not prod.is_one():
                report.record("skew-symmetry", (i, j), str(prod), "1")
    return report


def diagonal_braiding(chi: Bicharacter, basis: GradedBasis) -> GenericBraiding:
    """c(x_i x x_j) = chi(deg x_i, deg x_j) x_j x x_i as a structure tensor."""
    report = validate_bicharacter(chi)
    if not report.ok:
        raise InputError("invalid bicharacter:\n" + report.summary())
    d = basis.dim
    q = [[chi.value(basis.degrees[i], basis.degrees[j]) for j in range(d)] for i in range(d)]
    return GenericBraiding.diagonal(q)


def braid_check(c: GenericBraiding) -> bool:
    """Exhaustive check of the braid equation on all basis triples."""
    d, dd = c.dim, c.dim ** 2
    rows = c.lowered[0]
    for i in range(d):
        ri = rows[i]
        for j in range(d):
            cij, rj = ri[j], rows[j]
            for k in range(d):
                # (c x id)(id x c)(c x id) on e_i x e_j x e_k
                lhs: dict = {}
                for a, b, s in cij:
                    ra = rows[a]
                    for x, y, t in rows[b][k]:
                        st = s * t
                        for p, q, u in ra[x]:
                            key, v = p * dd + q * d + y, st * u
                            prev = lhs.get(key)
                            lhs[key] = v if prev is None else prev + v
                # (id x c)(c x id)(id x c) on the same triple
                rhs: dict = {}
                for a, b, s in rj[k]:
                    for x, y, t in ri[a]:
                        st, xdd = s * t, x * dd
                        for p, q, u in rows[y][b]:
                            key, v = xdd + p * d + q, st * u
                            prev = rhs.get(key)
                            rhs[key] = v if prev is None else prev + v
                if lhs != rhs and not vec_equal(lhs, rhs):
                    return False
    return True


def is_symmetric(c: GenericBraiding) -> bool:
    """True iff applying the braiding twice is the identity on all basis pairs."""
    d = c.dim
    rows, one = c.lowered
    for i in range(d):
        for j in range(d):
            twice: dict = {}
            for a, b, s in rows[i][j]:
                for x, y, t in rows[a][b]:
                    key, v = x * d + y, s * t
                    prev = twice.get(key)
                    twice[key] = v if prev is None else prev + v
            target = {i * d + j: one}
            if twice != target and not vec_equal(twice, target):
                return False
    return True


def is_categorical(c: GenericBraiding, x: Subspace) -> bool:
    """True iff c(X x V) lies in V x X and c(V x X) lies in X x V, exactly.

    For each basis row of X and each basis vector of V, both images are
    contracted in one pass against every annihilator functional of X on the
    leg that must lie in X; the sums, keyed by (functional, remaining leg),
    must all vanish."""
    f_at = x.functionals_at
    if not f_at:
        return True
    rows = c.rows
    for xv in x.rows:
        for i in range(c.dim):
            left: dict = {}   # f(second leg) of c(x (x) e_i)
            right: dict = {}  # f(first leg) of c(e_i (x) x)
            for a, ca in xv.items():
                for (p, q), s in rows[a][i].items():
                    fs = f_at.get(q)
                    if fs:
                        cs = ca * s
                        for t, fq in fs:
                            key, v = (t, p), cs * fq
                            prev = left.get(key)
                            left[key] = v if prev is None else prev + v
                for (p, q), s in rows[i][a].items():
                    fs = f_at.get(p)
                    if fs:
                        cs = ca * s
                        for t, fp in fs:
                            key, v = (t, q), cs * fp
                            prev = right.get(key)
                            right[key] = v if prev is None else prev + v
            if any(not v.is_zero() for v in left.values()) or \
                    any(not v.is_zero() for v in right.values()):
                return False
    return True
