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

The checkers read the tables through :attr:`StructureBialgebra.lowered`:
Python ints when every coefficient of the bialgebra and of its braiding is
a rational integer, the Scalar tables otherwise.  Both are exact, so the
loops, and the reports they give, are the same on either.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import inf

from .braided_space import GenericBraiding
from .multilinear import Vec, as_scalar, bilinear, lift, lower, vadd_into, vec_equal, vsum
from .reporting import ValidationReport
from .scalars import ONE, ZERO, Scalar


class Tables:
    """The structure tables of a bialgebra and its braiding in one
    coefficient type, with that type's 0 and 1."""
    __slots__ = ("mult", "comult", "counit", "antipode", "unit", "braid", "zero", "one")

    def __init__(self, mult, comult, counit, antipode, unit, braid, zero, one):
        self.mult, self.comult, self.counit, self.antipode = mult, comult, counit, antipode
        self.unit, self.braid, self.zero, self.one = unit, braid, zero, one


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
        """The tables as Python ints when every coefficient of the bialgebra
        and of its braiding is a rational integer, else the Scalar tables
        themselves.  The two are lowered together, since an int and a Scalar
        do not multiply.  Derived once per object."""
        braid, one = self.braiding.lowered
        anti = () if self.antipode is None else self.antipode
        ints = None if one is ONE else lower((self.mult, self.comult, self.counit, anti, self.unit))
        if ints is None:
            return Tables(self.mult, self.comult, self.counit, self.antipode, self.unit,
                          self.braiding.rows, ZERO, ONE)
        mult, comult, counit, anti, unit = ints
        return Tables(mult, comult, counit, None if self.antipode is None else anti,
                      unit, braid, 0, 1)

    # -- pair interface -------------------------------------------------------

    def unit_vec(self) -> Vec:
        return dict(self.unit)

    def mul_pair(self, i: int, j: int) -> Vec:
        return self.mult[i][j]

    def braid_pair(self, i: int, j: int):
        return self.braiding.rows[i][j]

    # -- linear extensions ------------------------------------------------------

    def basis_vec(self, i: int) -> Vec:
        return {i: ONE}

    def multiply(self, a: Vec, b: Vec) -> Vec:
        return bilinear(self.mult, a, b)

    def comultiply(self, a: Vec):
        out: Vec = {}
        for i, c in a.items():
            vadd_into(out, self.comult[i], c)
        return out

    def counit_of(self, a: Vec) -> Scalar:
        s = ZERO
        for i, c in a.items():
            s = s + self.counit[i] * c
        return s

    def apply_antipode(self, a: Vec) -> Vec:
        if self.antipode is None:
            raise ValueError("no antipode stored")
        out: Vec = {}
        for i, c in a.items():
            vadd_into(out, self.antipode[i], c)
        return out

    def degree_indices(self, n: int) -> list[int]:
        return [i for i in range(self.dim) if self.degree(i) == n]

    def max_degree(self) -> int:
        return max((self.degree(i) for i in range(self.dim)), default=0)

    def render(self, vec: Vec) -> str:
        return render_tensor(self, lift(vec))


def render_tensor(h: StructureBialgebra, vec) -> str:
    if not vec:
        return "0"
    parts = []
    for key in sorted(vec):
        c = vec[key]
        word = "(x)".join(h.names[i] for i in key)
        parts.append(word if c.is_one() else f"({c})*{word}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------
#
# Each side of each axiom is composed from the structure rows (mult[i][j],
# comult[i], antipode[i] and the braiding's row table) into one local sparse
# vector, keyed by atoms for one-slot sides and by atom tuples otherwise.
# Coefficients are multiplied left to right in the order the maps apply, as
# in the slot-operation evaluation that the tests keep as the reference.
# The rows are those of ``h.lowered``; zero tests go by truth value, and a
# side is turned back into Scalars only to render a violation.

def _render_side(h: StructureBialgebra, vec: Vec) -> str:
    return render_tensor(h, {k if type(k) is tuple else (k,): as_scalar(c)
                             for k, c in vec.items() if c})


def _compare(h, report, axiom, witness, lhs, rhs):
    report.checked += 1
    if not vec_equal(lhs, rhs):
        report.record(axiom, tuple(h.names[i] for i in witness),
                      _render_side(h, lhs), _render_side(h, rhs))


def check_braided_algebra(h: StructureBialgebra) -> ValidationReport:
    """Associativity, unit laws, and compatibility of product with braiding."""
    report = ValidationReport("braided algebra")
    d, tab = h.dim, h.lowered
    mult, c, unit, deg, cap = tab.mult, tab.braid, tab.unit, h.gates, h.cap
    for i in range(d):
        e = {i: tab.one}
        _compare(h, report, "unit-left", (i,),
                 vsum((b, cu * t) for u, cu in unit.items() for b, t in mult[u][i].items()), e)
        _compare(h, report, "unit-right", (i,),
                 vsum((b, cu * t) for u, cu in unit.items() for b, t in mult[i][u].items()), e)
        _compare(h, report, "unit-braid-left", (i,),
                 vsum((xy, cu * t) for u, cu in unit.items() for xy, t in c[u][i].items()),
                 {(i, u): cu for u, cu in unit.items()})
        _compare(h, report, "unit-braid-right", (i,),
                 vsum((xy, cu * t) for u, cu in unit.items() for xy, t in c[i][u].items()),
                 {(u, i): cu for u, cu in unit.items()})
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
                    for a, s in mij.items():
                        for b, t in mult[a][k].items():
                            v = s * t
                            prev = lhs.get(b)
                            lhs[b] = v if prev is None else prev + v
                    rhs: Vec = {}
                    for a, s in mjk.items():
                        for b, t in mi[a].items():
                            v = s * t
                            prev = rhs.get(b)
                            rhs[b] = v if prev is None else prev + v
                    _compare(h, report, "associativity", (i, j, k), lhs, rhs)
                else:
                    report.skipped += 1
                if gij <= cap:
                    # c(e_i e_j x e_k) against (id x m)(c x id)(id x c)
                    lhs = {}
                    for a, s in mij.items():
                        for xy, t in c[a][k].items():
                            v = s * t
                            prev = lhs.get(xy)
                            lhs[xy] = v if prev is None else prev + v
                    rhs = {}
                    for (a, b), s in cjk.items():
                        for (x, y), t in ci[a].items():
                            st = s * t
                            for z, u in mult[y][b].items():
                                key, v = (x, z), st * u
                                prev = rhs.get(key)
                                rhs[key] = v if prev is None else prev + v
                    _compare(h, report, "braid-mult-left", (i, j, k), lhs, rhs)
                else:
                    report.skipped += 1
                if gj + deg[k] <= cap:
                    # c(e_i x e_j e_k) against (m x id)(id x c)(c x id)
                    lhs = {}
                    for a, s in mjk.items():
                        for xy, t in ci[a].items():
                            v = s * t
                            prev = lhs.get(xy)
                            lhs[xy] = v if prev is None else prev + v
                    rhs = {}
                    for (a, b), s in cij.items():
                        ma = mult[a]
                        for (x, y), t in c[b][k].items():
                            st = s * t
                            for z, u in ma[x].items():
                                key, v = (z, y), st * u
                                prev = rhs.get(key)
                                rhs[key] = v if prev is None else prev + v
                    _compare(h, report, "braid-mult-right", (i, j, k), lhs, rhs)
                else:
                    report.skipped += 1
    if h.truncation is not None:
        report.note = f"degree-aware below truncation {h.truncation}"
    return report


def check_braided_coalgebra(h: StructureBialgebra) -> ValidationReport:
    """Coassociativity, counit laws, and compatibility of coproduct with braiding."""
    report = ValidationReport("braided coalgebra")
    d, tab = h.dim, h.lowered
    comult, eps, c = tab.comult, tab.counit, tab.braid
    for i in range(d):
        de, e = comult[i], {i: tab.one}
        _compare(h, report, "coassociativity", (i,),
                 vsum(((x, y, b), s * t) for (a, b), s in de.items()
                      for (x, y), t in comult[a].items()),
                 vsum(((a, x, y), s * t) for (a, b), s in de.items()
                      for (x, y), t in comult[b].items()))
        _compare(h, report, "counit-left", (i,),
                 vsum((b, s * eps[a]) for (a, b), s in de.items() if eps[a]), e)
        _compare(h, report, "counit-right", (i,),
                 vsum((a, s * eps[b]) for (a, b), s in de.items() if eps[b]), e)
    for i in range(d):
        ci, de = c[i], comult[i]
        for j in range(d):
            cij = ci[j]
            # (Delta x id) c against (id x c)(c x id)(id x Delta)
            lhs: Vec = {}
            rhs: Vec = {}
            for (a, b), s in cij.items():
                for (x, y), t in comult[a].items():
                    key, v = (x, y, b), s * t
                    prev = lhs.get(key)
                    lhs[key] = v if prev is None else prev + v
            for (a, b), s in comult[j].items():
                for (x, y), t in ci[a].items():
                    st = s * t
                    for (p, q), u in c[y][b].items():
                        key, v = (x, p, q), st * u
                        prev = rhs.get(key)
                        rhs[key] = v if prev is None else prev + v
            _compare(h, report, "braid-comul-left", (i, j), lhs, rhs)
            # (id x Delta) c against (c x id)(id x c)(Delta x id)
            lhs = {}
            rhs = {}
            for (a, b), s in cij.items():
                for (x, y), t in comult[b].items():
                    key, v = (a, x, y), s * t
                    prev = lhs.get(key)
                    lhs[key] = v if prev is None else prev + v
            for (a, b), s in de.items():
                ca = c[a]
                for (x, y), t in c[b][j].items():
                    st = s * t
                    for (p, q), u in ca[x].items():
                        key, v = (p, q, y), st * u
                        prev = rhs.get(key)
                        rhs[key] = v if prev is None else prev + v
            _compare(h, report, "braid-comul-right", (i, j), lhs, rhs)
            # (eps x id) c and (id x eps) c against the counit of the other leg
            lhs = {}
            rhs = {}
            for (a, b), s in cij.items():
                if eps[a]:
                    v = s * eps[a]
                    prev = lhs.get(b)
                    lhs[b] = v if prev is None else prev + v
                if eps[b]:
                    v = s * eps[b]
                    prev = rhs.get(a)
                    rhs[a] = v if prev is None else prev + v
            _compare(h, report, "counit-braid-left", (i, j), lhs, {i: eps[j]})
            _compare(h, report, "counit-braid-right", (i, j), rhs, {j: eps[i]})
    return report


def check_braided_bialgebra(h: StructureBialgebra) -> ValidationReport:
    """Coproduct and counit are morphisms onto the braided tensor-square algebra."""
    report = ValidationReport("braided bialgebra")
    d, tab = h.dim, h.lowered
    mult, comult, eps, c, unit = tab.mult, tab.comult, tab.counit, tab.braid, tab.unit
    deg, cap = h.gates, h.cap
    _compare(h, report, "comul-unit", (),
             vsum((xy, cu * t) for u, cu in unit.items() for xy, t in comult[u].items()),
             {(u, v): cu * cv for u, cu in unit.items() for v, cv in unit.items()})
    report.checked += 1
    eps_unit = sum((eps[u] * cu for u, cu in unit.items()), tab.zero)
    if eps_unit - tab.one:
        report.record("counit-unit", (), str(as_scalar(eps_unit)), "1")
    for i in range(d):
        di = comult[i]
        for j in range(d):
            if deg[i] + deg[j] > cap:
                report.skipped += 1
                continue
            mij = mult[i][j]
            # Delta(e_i e_j) against the tensor-square product Delta(e_i) Delta(e_j)
            lhs: Vec = {}
            for a, s in mij.items():
                for xy, t in comult[a].items():
                    v = s * t
                    prev = lhs.get(xy)
                    lhs[xy] = v if prev is None else prev + v
            rhs: Vec = {}
            dj = comult[j].items()
            for (a, b), s in di.items():
                ma, cb = mult[a], c[b]
                for (p, q), t in dj:
                    st = s * t
                    for (x, y), u in cb[p].items():
                        stu, myq = st * u, mult[y][q]
                        for z, w in ma[x].items():
                            stuw = stu * w
                            for r, g in myq.items():
                                key, v = (z, r), stuw * g
                                prev = rhs.get(key)
                                rhs[key] = v if prev is None else prev + v
            _compare(h, report, "comul-mult", (i, j), lhs, rhs)
            report.checked += 1
            eps_prod = sum((eps[a] * s for a, s in mij.items()), tab.zero)
            if eps_prod - eps[i] * eps[j]:
                report.record("counit-mult", (h.names[i], h.names[j]),
                              str(as_scalar(eps_prod)), str(as_scalar(eps[i] * eps[j])))
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
        target = {u: eps[i] * cu for u, cu in unit.items()} if eps[i] else {}
        _compare(h, report, "antipode-left", (i,),
                 vsum((z, s * t * u) for (a, b), s in de.items() for x, t in anti[a].items()
                      for z, u in mult[x][b].items()), target)
        _compare(h, report, "antipode-right", (i,),
                 vsum((z, s * t * u) for (a, b), s in de.items() for y, t in anti[b].items()
                      for z, u in mult[a][y].items()), target)
        _compare(h, report, "antipode-comul", (i,),
                 vsum(((p, q), s * t * u * v) for (a, b), s in de.items()
                      for (x, y), t in c[a][b].items() for p, u in anti[x].items()
                      for q, v in anti[y].items()),
                 vsum((pq, t * u) for x, t in anti[i].items() for pq, u in comult[x].items()))
    for i in range(d):
        ci, si = c[i], anti[i]
        for j in range(d):
            cij, sj = ci[j], anti[j]
            # (S x id) c against c (id x S), and (id x S) c against c (S x id)
            lhs_l: Vec = {}
            lhs_r: Vec = {}
            for (a, b), s in cij.items():
                for x, t in anti[a].items():
                    key, v = (x, b), s * t
                    prev = lhs_l.get(key)
                    lhs_l[key] = v if prev is None else prev + v
                for y, t in anti[b].items():
                    key, v = (a, y), s * t
                    prev = lhs_r.get(key)
                    lhs_r[key] = v if prev is None else prev + v
            rhs_l: Vec = {}
            for a, s in sj.items():
                for xy, t in ci[a].items():
                    v = s * t
                    prev = rhs_l.get(xy)
                    rhs_l[xy] = v if prev is None else prev + v
            rhs_r: Vec = {}
            for a, s in si.items():
                for xy, t in c[a][j].items():
                    v = s * t
                    prev = rhs_r.get(xy)
                    rhs_r[xy] = v if prev is None else prev + v
            _compare(h, report, "antipode-braid-left", (i, j), lhs_l, rhs_l)
            _compare(h, report, "antipode-braid-right", (i, j), lhs_r, rhs_r)
            if deg[i] + deg[j] <= cap:
                # m c (S x S) against S m
                lhs = {}
                for a, s in si.items():
                    ca = c[a]
                    for b, t in sj.items():
                        st = s * t
                        for (x, y), u in ca[b].items():
                            stu = st * u
                            for z, w in mult[x][y].items():
                                v = stu * w
                                prev = lhs.get(z)
                                lhs[z] = v if prev is None else prev + v
                rhs = {}
                for a, s in mult[i][j].items():
                    for z, t in anti[a].items():
                        v = s * t
                        prev = rhs.get(z)
                        rhs[z] = v if prev is None else prev + v
                _compare(h, report, "antipode-mult", (i, j), lhs, rhs)
            else:
                report.skipped += 1
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


def check_commutator_coproduct_all(h: StructureBialgebra,
                                   comm: list[list[Vec]]) -> ValidationReport:
    """The coproduct of each braided commutator [e_i, e_j], read from the
    commutator table ``comm`` of h, against the commutator
    [Delta e_i, Delta e_j] of the tensor-square algebra, on every basis pair
    below the truncation.

    The right side expands bilinearly over the coproduct terms; the bracket
    [e_a x e_b, e_p x e_q] of each quadruple is composed from the rows once
    per call and shared by every pair whose coproducts contain it."""
    report = ValidationReport("commutator-coproduct compatibility")
    tab = h.lowered
    mult, comult, c, deg, cap = tab.mult, tab.comult, tab.braid, h.gates, h.cap
    if tab.one is not ONE:  # integral rows give an integral commutator table
        comm = lower(comm)
    products: dict = {}  # (a, b, p, q) -> (e_a x e_b)(e_p x e_q)
    brackets: dict = {}  # (a, b, p, q) -> [e_a x e_b, e_p x e_q]

    def product(a, b, p, q) -> Vec:
        """(m x m)(id x c x id) on e_a x e_b x e_p x e_q."""
        key = (a, b, p, q)
        out = products.get(key)
        if out is None:
            out = {}
            ma = mult[a]
            for (x, y), s in c[b][p].items():
                myq = mult[y][q]
                for z, t in ma[x].items():
                    st = s * t
                    for r, u in myq.items():
                        zr, v = (z, r), st * u
                        prev = out.get(zr)
                        out[zr] = v if prev is None else prev + v
            products[key] = out
        return out

    def bracket(a, b, p, q) -> Vec:
        """The product minus the product after the tensor-square braiding
        (id x c x id)(c x c)(id x c x id)."""
        key = (a, b, p, q)
        out = brackets.get(key)
        if out is None:
            out = dict(product(a, b, p, q))
            ca = c[a]
            for (b1, p1), s1 in c[b][p].items():
                cb1 = ca[b1]
                for (p2, q2), s2 in c[p1][q].items():
                    s12 = s1 * s2
                    for (a3, b3), s3 in cb1.items():
                        s123 = s12 * s3
                        for (b4, p4), s4 in c[b3][p2].items():
                            f = -(s123 * s4)
                            for zr, v in product(a3, b4, p4, q2).items():
                                v = f * v
                                prev = out.get(zr)
                                out[zr] = v if prev is None else prev + v
            out = {zr: v for zr, v in out.items() if v}
            brackets[key] = out
        return out

    for i in range(h.dim):
        di = comult[i].items()
        for j in range(h.dim):
            if deg[i] + deg[j] > cap:
                report.skipped += 1
                continue
            lhs: Vec = {}
            for z, s in comm[i][j].items():
                for xy, t in comult[z].items():
                    v = s * t
                    prev = lhs.get(xy)
                    lhs[xy] = v if prev is None else prev + v
            rhs: Vec = {}
            dj = comult[j].items()
            for (a, b), s in di:
                for (p, q), t in dj:
                    st = s * t
                    for zr, u in bracket(a, b, p, q).items():
                        v = st * u
                        prev = rhs.get(zr)
                        rhs[zr] = v if prev is None else prev + v
            _compare(h, report, "commutator-coproduct", (i, j), lhs, rhs)
    return report


def is_c_commutative(h: StructureBialgebra, comm: list[list[Vec]]) -> bool:
    """True iff e_i e_j equals the opposite product m(c(e_i x e_j)) on every
    basis pair below the truncation: the entries of the commutator table
    ``comm`` of h at those pairs are empty."""
    deg, cap = h.gates, h.cap
    return not any(comm[i][j] for i in range(h.dim) for j in range(h.dim)
                   if deg[i] + deg[j] <= cap)
