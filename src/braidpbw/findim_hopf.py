"""Structure-constant braided bialgebras and exhaustive exact axiom checkers.

A bialgebra is stored as dense-by-index sparse tensors over the scalar
field: mult[i][j] is the product of basis vectors i and j as a sparse
vector, comult[i] the coproduct as a sparse 2-tensor, and so on.  Each
checker evaluates both sides of an axiom on every basis tuple and records
violations with witnesses; equality is exact with zero tolerance.  The
sides are composed from those rows and the braiding's row table in local
loops, with the rows that do not depend on the innermost index looked up
once per outer index.

Graded objects may carry a truncation degree T: any product whose degree
bookkeeping exceeds T is stored as zero, and every checker skips the
tuples whose combined degree makes a truncated product unavoidable.  The
degree used for this gating is ``trunc_grading`` (defaulting to
``grading``); the two differ only for the associated graded of relative
filtrations, where the structural degree is the filtration step while the
truncation bookkeeping follows the original grading.

The checkers read one compiled view, :attr:`StructureBialgebra.lowered`:
every table as tuples of terms, with Python int coefficients when every
coefficient of the bialgebra and of its braiding is a rational integer and
Scalars otherwise.  Both are exact, so the reports are the same on either.
Multi-leg sides are keyed by packed ints, x*d + y or p*d^2 + q*d + y.

The commutator-coproduct check reads each bracket [e_a x e_b, e_p x e_q]
of the braided tensor square from the commutator table and
mc = mult - commutators, with c(e_b x e_p) = sum u e_x x e_y, as
sum u ([e_a, e_x] (x) e_y e_q + mc(e_a x e_x) (x) [e_y, e_q]) plus one term
in delta = c c - id.  The delta table is formed only when
``braiding.symmetric``, the exact c c = id verdict on every basis pair, is
False, the only case in which that term can be nonzero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import inf

from .braided_space import GenericBraiding
from .multilinear import (Vec, as_scalar, bilinear, compile_table, integral, linear, vadd_into,
                          vec_equal, vsum)
from .reporting import ValidationReport, render_combination
from .scalars import ONE, ZERO, Scalar


class Tables:
    """A bialgebra's compiled tables in one coefficient type, with its 0 and 1:
    mult[i][j], antipode[i] and unit as ((k, s), ...), comult[i] as
    ((a, b, s), ...), braid[i][j] as ((x, y, s), ...), counit[i] as s."""
    __slots__ = ("mult", "comult", "counit", "antipode", "unit", "braid", "zero", "one")

    def __init__(self, mult, comult, counit, antipode, unit, braid, zero, one):
        self.mult, self.comult, self.counit, self.antipode = mult, comult, counit, antipode
        self.unit, self.braid, self.zero, self.one = unit, braid, zero, one

    def compile(self, table):
        """Another table of the bialgebra, such as its commutator table, in this view."""
        return compile_table(table, type(self.one) is int)


@dataclass(eq=False)
class StructureBialgebra:
    names: tuple[str, ...]
    unit: Vec
    mult: tuple[tuple[Vec, ...], ...]
    counit: tuple[Scalar, ...]
    comult: tuple[Vec, ...]  # sparse 2-tensors keyed by (j, k)
    braiding: GenericBraiding
    antipode: tuple[Vec, ...] | None = None
    grading: tuple[int, ...] | None = None
    truncation: int | None = None
    trunc_grading: tuple[int, ...] | None = None
    # the truncation gate, derived once: each basis vector's truncation
    # degree, and the cap on their sums (infinite when nothing is truncated)
    gates: tuple[int, ...] = field(init=False)
    cap: float = field(init=False)

    def __post_init__(self):
        d = len(self.names)
        if self.braiding.dim != d:
            raise ValueError("braiding dimension does not match basis")
        if self.truncation is not None and self.grading is None:
            raise ValueError("a truncation degree requires a grading")
        if self.truncation is not None and self.truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {self.truncation}")
        for key in ("grading", "trunc_grading"):
            degrees = getattr(self, key)
            if degrees is not None and min(degrees, default=0) < 0:
                raise ValueError(f"{key} degrees must be >= 0, got {min(degrees)}")
        if self.trunc_grading is None:
            self.trunc_grading = self.grading
        self.gates = tuple(self.trunc_grading) if self.trunc_grading is not None else (0,) * d
        self.cap = inf if self.truncation is None else self.truncation

    @property
    def dim(self) -> int:
        return len(self.names)

    def degree(self, i: int) -> int:
        return self.grading[i] if self.grading is not None else 0

    def gate_of(self, vec: Vec) -> int:
        """Largest truncation degree in the support of a sparse vector."""
        return max((self.gates[i] for i in vec), default=0)

    @cached_property
    def lowered(self) -> Tables:
        """The compiled view that the exhaustive checkers read: int coefficients
        when every coefficient of the bialgebra and of its braiding is a
        rational integer, else Scalars (an int and a Scalar do not multiply).
        It shares the braiding's table when their types agree.  Derived once."""
        braid, one = self.braiding.lowered
        tables = (self.mult, self.comult, self.counit, self.antipode or (), self.unit)
        ints = type(one) is int and integral(tables)
        if type(one) is int and not ints:
            braid, one = compile_table(self.braiding.rows, False), ONE
        mult, comult, counit, anti, unit = compile_table(tables, ints)
        return Tables(mult, comult, counit, None if self.antipode is None else anti, unit,
                      braid, 0 if ints else ZERO, one)

    @cached_property
    def commutators(self) -> list[list[Vec]]:
        """:func:`commutator_table` of this bialgebra, derived once."""
        return commutator_table(self)

    @cached_property
    def own_graded(self) -> bool:
        """:func:`rows_are_graded` of this bialgebra, decided once."""
        return rows_are_graded(self)

    # -- linear extensions ------------------------------------------------------

    def multiply(self, a: Vec, b: Vec) -> Vec:
        return bilinear(self.mult, a, b)

    def comultiply(self, a: Vec):
        return linear(self.comult, a)

    def counit_of(self, a: Vec) -> Scalar:
        s = ZERO
        for i, c in a.items():
            s = s + self.counit[i] * c
        return s

    def apply_antipode(self, a: Vec) -> Vec:
        if self.antipode is None:
            raise ValueError("no antipode stored")
        return linear(self.antipode, a)

    def degree_indices(self, n: int) -> list[int]:
        return [i for i in range(self.dim) if self.degree(i) == n]

    def max_degree(self) -> int:
        return max((self.degree(i) for i in range(self.dim)), default=0)


def render_tensor(h: StructureBialgebra, vec) -> str:
    """A sparse vector keyed by basis indices, or a tensor keyed by tuples of
    them, as text."""
    return render_combination(
        (h.names[key] if type(key) is int else "(x)".join(h.names[i] for i in key), vec[key])
        for key in sorted(vec))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------
#
# Each side of each axiom is composed from the compiled rows of ``h.lowered``
# (mult[i][j], comult[i], antipode[i] and the braiding's row table) into one
# local sparse vector, keyed by the atom for one-slot sides and by the packed
# index (...(i_1 d + i_2) d + ...) + i_n for n slots.  Coefficients are
# multiplied left to right in the order the maps apply, as in the
# slot-operation evaluation that the tests keep as the reference.  Zero tests
# go by truth value; the counters are kept in locals, and a side is unpacked
# and turned back into Scalars only to render a violation.

def _check(h: StructureBialgebra, report, witness, *sides):
    """Record each (axiom, legs, lhs, rhs) whose sides differ; the packed keys
    of a side are unpacked to legs indices only to render it."""
    d = h.dim
    for axiom, legs, lhs, rhs in sides:
        if lhs != rhs and not vec_equal(lhs, rhs):
            report.record(axiom, tuple(h.names[i] for i in witness), *(render_tensor(h, {
                tuple(k // d ** n % d for n in range(legs - 1, -1, -1)): as_scalar(c)
                for k, c in vec.items() if c}) for vec in (lhs, rhs)))


def check_braided_algebra(h: StructureBialgebra) -> ValidationReport:
    """Associativity, unit laws, and compatibility of product with braiding."""
    report = ValidationReport("braided algebra")
    d, tab = h.dim, h.lowered
    mult, c, unit, deg, cap = tab.mult, tab.braid, tab.unit, h.gates, h.cap
    skipped = 0
    for i in range(d):
        e = {i: tab.one}
        _check(h, report, (i,),
               ("unit-left", 1, vsum((b, cu * t) for u, cu in unit for b, t in mult[u][i]), e),
               ("unit-right", 1, vsum((b, cu * t) for u, cu in unit for b, t in mult[i][u]), e),
               ("unit-braid-left", 2, vsum((x * d + y, cu * t) for u, cu in unit
                                           for x, y, t in c[u][i]),
                {i * d + u: cu for u, cu in unit}),
               ("unit-braid-right", 2, vsum((x * d + y, cu * t) for u, cu in unit
                                            for x, y, t in c[i][u]),
                {u * d + i: cu for u, cu in unit}))
    for i in range(d):
        mi, ci = mult[i], c[i]
        for j in range(d):
            mij, cij, mj, cj = mi[j], ci[j], mult[j], c[j]
            gij, gj = deg[i] + deg[j], deg[j]
            for k in range(d):
                mjk, cjk = mj[k], cj[k]
                if gij + deg[k] <= cap:
                    # (e_i e_j) e_k against e_i (e_j e_k)
                    lhs: Vec = {}
                    for a, s in mij:
                        for b, t in mult[a][k]:
                            v = s * t
                            prev = lhs.get(b)
                            lhs[b] = v if prev is None else prev + v
                    rhs: Vec = {}
                    for a, s in mjk:
                        for b, t in mi[a]:
                            v = s * t
                            prev = rhs.get(b)
                            rhs[b] = v if prev is None else prev + v
                    if lhs != rhs and not vec_equal(lhs, rhs):
                        _check(h, report, (i, j, k), ("associativity", 1, lhs, rhs))
                else:
                    skipped += 1
                if gij <= cap:
                    # c(e_i e_j x e_k) against (id x m)(c x id)(id x c)
                    lhs = {}
                    for a, s in mij:
                        for x, y, t in c[a][k]:
                            key, v = x * d + y, s * t
                            prev = lhs.get(key)
                            lhs[key] = v if prev is None else prev + v
                    rhs = {}
                    for a, b, s in cjk:
                        for x, y, t in ci[a]:
                            st, xd = s * t, x * d
                            for z, u in mult[y][b]:
                                key, v = xd + z, st * u
                                prev = rhs.get(key)
                                rhs[key] = v if prev is None else prev + v
                    if lhs != rhs and not vec_equal(lhs, rhs):
                        _check(h, report, (i, j, k), ("braid-mult-left", 2, lhs, rhs))
                else:
                    skipped += 1
                if gj + deg[k] <= cap:
                    # c(e_i x e_j e_k) against (m x id)(id x c)(c x id)
                    lhs = {}
                    for a, s in mjk:
                        for x, y, t in ci[a]:
                            key, v = x * d + y, s * t
                            prev = lhs.get(key)
                            lhs[key] = v if prev is None else prev + v
                    rhs = {}
                    for a, b, s in cij:
                        ma = mult[a]
                        for x, y, t in c[b][k]:
                            st = s * t
                            for z, u in ma[x]:
                                key, v = z * d + y, st * u
                                prev = rhs.get(key)
                                rhs[key] = v if prev is None else prev + v
                    if lhs != rhs and not vec_equal(lhs, rhs):
                        _check(h, report, (i, j, k), ("braid-mult-right", 2, lhs, rhs))
                else:
                    skipped += 1
    # four unit laws per basis vector, three laws per triple
    report.checked, report.skipped = 4 * d + 3 * d ** 3 - skipped, skipped
    if h.truncation is not None:
        report.note = f"degree-aware below truncation {h.truncation}"
    return report


def check_braided_coalgebra(h: StructureBialgebra) -> ValidationReport:
    """Coassociativity, counit laws, and compatibility of coproduct with braiding."""
    report = ValidationReport("braided coalgebra")
    d, tab = h.dim, h.lowered
    dd, comult, eps, c = d * d, tab.comult, tab.counit, tab.braid
    for i in range(d):
        de, e = comult[i], {i: tab.one}
        _check(h, report, (i,),
               ("coassociativity", 3,
                vsum((x * dd + y * d + b, s * t) for a, b, s in de for x, y, t in comult[a]),
                vsum((a * dd + x * d + y, s * t) for a, b, s in de for x, y, t in comult[b])),
               ("counit-left", 1, vsum((b, s * eps[a]) for a, b, s in de if eps[a]), e),
               ("counit-right", 1, vsum((a, s * eps[b]) for a, b, s in de if eps[b]), e))
    for i in range(d):
        ci, de = c[i], comult[i]
        for j in range(d):
            cij = ci[j]
            # (Delta x id) c against (id x c)(c x id)(id x Delta)
            lhs: Vec = {}
            rhs: Vec = {}
            for a, b, s in cij:
                for x, y, t in comult[a]:
                    key, v = x * dd + y * d + b, s * t
                    prev = lhs.get(key)
                    lhs[key] = v if prev is None else prev + v
            for a, b, s in comult[j]:
                for x, y, t in ci[a]:
                    st, xdd = s * t, x * dd
                    for p, q, u in c[y][b]:
                        key, v = xdd + p * d + q, st * u
                        prev = rhs.get(key)
                        rhs[key] = v if prev is None else prev + v
            if lhs != rhs and not vec_equal(lhs, rhs):
                _check(h, report, (i, j), ("braid-comul-left", 3, lhs, rhs))
            # (id x Delta) c against (c x id)(id x c)(Delta x id)
            lhs = {}
            rhs = {}
            for a, b, s in cij:
                for x, y, t in comult[b]:
                    key, v = a * dd + x * d + y, s * t
                    prev = lhs.get(key)
                    lhs[key] = v if prev is None else prev + v
            for a, b, s in de:
                ca = c[a]
                for x, y, t in c[b][j]:
                    st = s * t
                    for p, q, u in ca[x]:
                        key, v = p * dd + q * d + y, st * u
                        prev = rhs.get(key)
                        rhs[key] = v if prev is None else prev + v
            if lhs != rhs and not vec_equal(lhs, rhs):
                _check(h, report, (i, j), ("braid-comul-right", 3, lhs, rhs))
            # (eps x id) c and (id x eps) c against the counit of the other leg
            lhs = {}
            rhs = {}
            for a, b, s in cij:
                if eps[a]:
                    v = s * eps[a]
                    prev = lhs.get(b)
                    lhs[b] = v if prev is None else prev + v
                if eps[b]:
                    v = s * eps[b]
                    prev = rhs.get(a)
                    rhs[a] = v if prev is None else prev + v
            left, right = {i: eps[j]} if eps[j] else {}, {j: eps[i]} if eps[i] else {}
            if lhs != left or rhs != right:
                _check(h, report, (i, j), ("counit-braid-left", 1, lhs, left),
                       ("counit-braid-right", 1, rhs, right))
    # three laws per basis vector, four per pair
    report.checked = 3 * d + 4 * dd
    return report


def check_braided_bialgebra(h: StructureBialgebra) -> ValidationReport:
    """Coproduct and counit are morphisms onto the braided tensor-square algebra."""
    report = ValidationReport("braided bialgebra")
    d, tab = h.dim, h.lowered
    mult, comult, eps, c, unit = tab.mult, tab.comult, tab.counit, tab.braid, tab.unit
    deg, cap = h.gates, h.cap
    _check(h, report, (), ("comul-unit", 2,
                           vsum((x * d + y, cu * t) for u, cu in unit for x, y, t in comult[u]),
                           {u * d + v: cu * cv for u, cu in unit for v, cv in unit}))
    eps_unit = sum((eps[u] * cu for u, cu in unit), tab.zero)
    if eps_unit - tab.one:
        report.record("counit-unit", (), str(as_scalar(eps_unit)), "1")
    skipped = 0
    for i in range(d):
        di = comult[i]
        for j in range(d):
            if deg[i] + deg[j] > cap:
                skipped += 1
                continue
            mij = mult[i][j]
            # Delta(e_i e_j) against the tensor-square product Delta(e_i) Delta(e_j)
            lhs = {}
            for a, s in mij:
                for x, y, t in comult[a]:
                    key, v = x * d + y, s * t
                    prev = lhs.get(key)
                    lhs[key] = v if prev is None else prev + v
            rhs = {}
            dj = comult[j]
            for a, b, s in di:
                ma, cb = mult[a], c[b]
                for p, q, t in dj:
                    st = s * t
                    for x, y, u in cb[p]:
                        stu, myq = st * u, mult[y][q]
                        for z, w in ma[x]:
                            stuw, zd = stu * w, z * d
                            for r, g in myq:
                                key, v = zd + r, stuw * g
                                prev = rhs.get(key)
                                rhs[key] = v if prev is None else prev + v
            if lhs != rhs and not vec_equal(lhs, rhs):
                _check(h, report, (i, j), ("comul-mult", 2, lhs, rhs))
            eps_prod = sum((eps[a] * s for a, s in mij), tab.zero)
            if eps_prod - eps[i] * eps[j]:
                report.record("counit-mult", (h.names[i], h.names[j]),
                              str(as_scalar(eps_prod)), str(as_scalar(eps[i] * eps[j])))
    # the two unit laws, and two laws per pair below the truncation
    report.checked, report.skipped = 2 + 2 * (d * d - skipped), skipped
    if h.truncation is not None:
        report.note = f"degree-aware below truncation {h.truncation}"
    return report


def check_antipode(h: StructureBialgebra) -> ValidationReport:
    """Convolution-inverse property and braided compatibility of the antipode."""
    if h.antipode is None:
        raise ValueError("no antipode stored")
    report = ValidationReport("antipode")
    d, tab = h.dim, h.lowered
    mult, comult, eps, c, unit = tab.mult, tab.comult, tab.counit, tab.braid, tab.unit
    anti = tab.antipode
    deg, cap = h.gates, h.cap
    for i in range(d):
        de = comult[i]
        target = {u: eps[i] * cu for u, cu in unit} if eps[i] else {}
        _check(h, report, (i,),
               ("antipode-left", 1, vsum((z, s * t * u) for a, b, s in de
                                         for x, t in anti[a] for z, u in mult[x][b]), target),
               ("antipode-right", 1, vsum((z, s * t * u) for a, b, s in de
                                          for y, t in anti[b] for z, u in mult[a][y]), target),
               ("antipode-comul", 2,
                vsum((p * d + q, s * t * u * v) for a, b, s in de for x, y, t in c[a][b]
                     for p, u in anti[x] for q, v in anti[y]),
                vsum((p * d + q, t * u) for x, t in anti[i] for p, q, u in comult[x])))
    skipped = 0
    for i in range(d):
        ci, si = c[i], anti[i]
        for j in range(d):
            cij, sj = ci[j], anti[j]
            # (S x id) c against c (id x S), and (id x S) c against c (S x id)
            lhs_l: Vec = {}
            lhs_r: Vec = {}
            for a, b, s in cij:
                for x, t in anti[a]:
                    key, v = x * d + b, s * t
                    prev = lhs_l.get(key)
                    lhs_l[key] = v if prev is None else prev + v
                for y, t in anti[b]:
                    key, v = a * d + y, s * t
                    prev = lhs_r.get(key)
                    lhs_r[key] = v if prev is None else prev + v
            rhs_l: Vec = {}
            for a, s in sj:
                for x, y, t in ci[a]:
                    key, v = x * d + y, s * t
                    prev = rhs_l.get(key)
                    rhs_l[key] = v if prev is None else prev + v
            rhs_r: Vec = {}
            for a, s in si:
                for x, y, t in c[a][j]:
                    key, v = x * d + y, s * t
                    prev = rhs_r.get(key)
                    rhs_r[key] = v if prev is None else prev + v
            if lhs_l != rhs_l or lhs_r != rhs_r:
                _check(h, report, (i, j), ("antipode-braid-left", 2, lhs_l, rhs_l),
                       ("antipode-braid-right", 2, lhs_r, rhs_r))
            if deg[i] + deg[j] <= cap:
                # m c (S x S) against S m
                lhs = {}
                for a, s in si:
                    ca = c[a]
                    for b, t in sj:
                        st = s * t
                        for x, y, u in ca[b]:
                            stu = st * u
                            for z, w in mult[x][y]:
                                v = stu * w
                                prev = lhs.get(z)
                                lhs[z] = v if prev is None else prev + v
                rhs = {}
                for a, s in mult[i][j]:
                    for z, t in anti[a]:
                        v = s * t
                        prev = rhs.get(z)
                        rhs[z] = v if prev is None else prev + v
                if lhs != rhs and not vec_equal(lhs, rhs):
                    _check(h, report, (i, j), ("antipode-mult", 1, lhs, rhs))
            else:
                skipped += 1
    # three laws per basis vector, three per pair (one of them truncated)
    report.checked, report.skipped = 3 * d + 3 * d * d - skipped, skipped
    return report


def run_all_checks(h: StructureBialgebra) -> dict[str, ValidationReport]:
    reports = {
        "algebra": check_braided_algebra(h),
        "coalgebra": check_braided_coalgebra(h),
        "bialgebra": check_braided_bialgebra(h),
    }
    if h.antipode is not None:
        reports["antipode"] = check_antipode(h)
    return reports


def commutator_table(h: StructureBialgebra) -> list[list[Vec]]:
    """The braided commutators [e_i, e_j] = e_i e_j - m(c(e_i x e_j)) of all
    basis pairs, from the structure rows, without zero entries."""
    mult, c = h.mult, h.braiding.rows
    table = []
    for i in range(h.dim):
        mi, ci = mult[i], c[i]
        row = []
        for j in range(h.dim):
            out = vadd_into({}, mi[j])
            for (a, b), s in ci[j].items():
                vadd_into(out, mult[a][b], -s)
            row.append(out)
        table.append(row)
    return table


def rows_are_graded(h: StructureBialgebra) -> bool:
    """Whether h's rows, read in place, are graded by h's grading: the names
    are distinct, the truncation degrees are those of the grading (the
    gates, when h is truncated), the counit vanishes in positive degree,
    every product past the cap is empty, and every stored coefficient is
    nonzero and sits at its slot's degree (0 in the unit, deg a + deg b in
    products and braid rows, deg a in coproducts and the antipode).  False
    when h has no grading or a row holds a key past the basis."""
    deg, gates, rows, anti = h.grading, h.gates, h.braiding.rows, h.antipode
    if (deg is None or len(set(h.names)) < h.dim
            or h.trunc_grading != (gates if h.truncation is not None else deg)
            or any(deg[i] and not c.is_zero() for i, c in enumerate(h.counit))):
        return False

    def one(vec, n):
        return all(deg[r] == n and not c.is_zero() for r, c in vec.items())

    def two(w, n):
        return all(deg[r] + deg[s] == n and not c.is_zero() for (r, s), c in w.items())

    try:
        return one(h.unit, 0) and all(
            two(h.comult[a], m) and (anti is None or one(anti[a], m)) and all(
                (not h.mult[a][b] if gates[a] + gates[b] > h.cap else one(h.mult[a][b], m + n))
                and two(rows[a][b], m + n) for b, n in enumerate(deg))
            for a, m in enumerate(deg))
    except IndexError:  # a key past the basis
        return False


def check_commutator_coproduct_all(h: StructureBialgebra) -> ValidationReport:
    """The coproduct of each braided commutator [e_i, e_j], read from
    ``h.commutators`` compiled into h's view, against the commutator
    [Delta e_i, Delta e_j] of the braided tensor square, on every basis pair
    below the truncation.

    The square multiplies by m2 = (m x m)(id x c x id) and braids by
    c2 = (id x c x id)(c x c)(id x c x id), so m2 c2 is
    (m x m)(id x cc x id)(c x c)(id x c x id).  With cc = id + delta, the
    commutator table and mc = mult - commutators, and with
    c(e_b x e_p) = sum u e_x x e_y, c(e_a x e_x) = sum v e_a' x e_x' and
    c(e_y x e_q) = sum w e_y' x e_q', each bracket of the right side is

        [e_a x e_b, e_p x e_q] = sum u ([e_a, e_x] (x) e_y e_q
                                        + mc(e_a x e_x) (x) [e_y, e_q]
                                        - sum v w (m x m)(e_a' x delta(e_x' x e_y') x e_q')),

    an identity of linear maps, so of the stored tables, truncated products
    included.  The delta table is formed only when ``h.braiding.symmetric``
    is False; otherwise the last term is zero.

    The identity follows from the axioms.  The braid-comul laws of
    :func:`check_braided_coalgebra`, (id x Delta) c = (c x id)(id x c)(Delta x id)
    once and (Delta x id) c = (id x c)(c x id)(id x Delta) at each of the
    two braidings it leaves, give (Delta x Delta) c = c2 (Delta x Delta).
    With comul-mult of :func:`check_braided_bialgebra`, Delta m =
    m2 (Delta x Delta), Delta m c = m2 c2 (Delta x Delta), so Delta [x, y] =
    m2 (id - c2)(Delta x x Delta y) = [Delta x, Delta y].  Under a truncation
    T, at a pair with g_i + g_j <= T (g the truncation degrees), [e_i, e_j]
    is the stored mult[i][j] - sum s mult[x][y] over the terms s e_x x e_y
    of c(e_i x e_j).  Braid-comul is checked at every pair and comul-mult at
    (i, j), but at (x, y) only when g_x + g_y <= T.  The identity at (i, j)
    therefore also needs c to keep the pair's truncation degree,
    g_x + g_y <= g_i + g_j on every term: a hypothesis that the axioms do not
    check and that every braiding graded by the truncation degrees meets."""
    report = ValidationReport("commutator-coproduct compatibility")
    d, tab = h.dim, h.lowered
    mult, comult, c, deg, cap = tab.mult, tab.comult, tab.braid, h.gates, h.cap
    comm = tab.compile(h.commutators)
    delta = None if h.braiding.symmetric else _braid_defect(d, tab)
    # mc = mult - comm, which is mult wherever the commutator is zero
    mc = [[tuple((k, s) for k, s in vsum([*mij, *((k, -s) for k, s in cij)]).items() if s)
           if cij else mij for mij, cij in zip(mi, ci)] for mi, ci in zip(mult, comm)]
    skipped = 0
    for i in range(d):
        di = comult[i]
        for j in range(d):
            if deg[i] + deg[j] > cap:
                skipped += 1
                continue
            lhs: Vec = {}
            for z, s in comm[i][j]:
                for x, y, t in comult[z]:
                    key, v = x * d + y, s * t
                    prev = lhs.get(key)
                    lhs[key] = v if prev is None else prev + v
            rhs: Vec = {}
            for a, b, s in di:
                ca, mca, cb, bra = comm[a], mc[a], c[b], c[a]
                for p, q, t in comult[j]:
                    for x, y, u in cb[p]:
                        if delta is not None:
                            # - sum v w (m x m)(e_a' x delta(e_x' x e_y') x e_q')
                            stu, bry = s * t * u, c[y][q]
                            for a1, x1, v in bra[x]:
                                ma1, f1 = mult[a1], stu * v
                                for y1, q1, w in bry:
                                    f2 = f1 * w
                                    for x2, y2, g in delta[x1][y1]:
                                        f3, myq = -(f2 * g), mult[y2][q1]
                                        for z, n in ma1[x2]:
                                            f, zd = f3 * n, z * d
                                            for r, o in myq:
                                                zr, v2 = zd + r, f * o
                                                prev = rhs.get(zr)
                                                rhs[zr] = v2 if prev is None else prev + v2
                        cax, cyq = ca[x], comm[y][q]
                        if not (cax or cyq):
                            continue
                        stu = s * t * u
                        if cax:
                            # [e_a, e_x] (x) e_y e_q
                            myq = mult[y][q]
                            for z, w in cax:
                                f, zd = stu * w, z * d
                                for r, g in myq:
                                    zr, v = zd + r, f * g
                                    prev = rhs.get(zr)
                                    rhs[zr] = v if prev is None else prev + v
                        if cyq:
                            # mc(e_a x e_x) (x) [e_y, e_q]
                            for z, w in mca[x]:
                                f, zd = stu * w, z * d
                                for r, g in cyq:
                                    zr, v = zd + r, f * g
                                    prev = rhs.get(zr)
                                    rhs[zr] = v if prev is None else prev + v
            if lhs != rhs and not vec_equal(lhs, rhs):
                _check(h, report, (i, j), ("commutator-coproduct", 2, lhs, rhs))
    report.checked, report.skipped = d * d - skipped, skipped
    return report


def _braid_defect(d: int, tab: Tables):
    """delta = c c - id on every basis pair, as compiled rows
    delta[i][j] = ((x, y, s), ...) in tab's coefficient type, without zero
    terms; every row is empty exactly when the braiding is symmetric."""
    c = tab.braid

    def defect(i, j):
        twice = vsum([(i * d + j, -tab.one), *((x * d + y, s * t) for a, b, s in c[i][j]
                                                for x, y, t in c[a][b])])
        return tuple((k // d, k % d, v) for k, v in twice.items() if v)

    return [[defect(i, j) for j in range(d)] for i in range(d)]
