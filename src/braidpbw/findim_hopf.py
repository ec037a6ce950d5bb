"""Structure-constant braided bialgebras and exhaustive exact axiom checkers.

A bialgebra is stored as dense-by-index sparse tensors over the scalar
field: mult[i][j] is the product of basis vectors i and j as a sparse
vector, comult[i] the coproduct as a sparse 2-tensor, and so on.  Each
checker evaluates both sides of an axiom on every basis tuple and records
violations with witnesses; equality is exact with zero tolerance.

Graded objects may carry a truncation degree T: any product whose degree
bookkeeping exceeds T is stored as zero, and every checker skips the
tuples whose combined degree makes a truncated product unavoidable.  The
degree used for this gating is ``trunc_grading`` (defaulting to
``grading``); the two differ only for the associated graded of relative
filtrations, where the structural degree is the filtration step while the
truncation bookkeeping follows the original grading.
"""
from __future__ import annotations

from dataclasses import dataclass

from .braided_space import GenericBraiding
from .linalg import Subspace, kernel
from .multilinear import (
    Vec,
    braid_at,
    commutator,
    lift,
    mul_at,
    slot_apply,
    slot_scalar,
    slot_split,
    square_commutator,
    square_product,
    tensor,
    unlift,
    vadd_into,
    vec_equal,
    vscale,
)
from .reporting import ValidationReport
from .scalars import ONE, ZERO, Scalar


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

    def __post_init__(self):
        d = len(self.names)
        if self.braiding.dim != d:
            raise ValueError("braiding dimension does not match basis")
        if self.truncation is not None and self.grading is None:
            raise ValueError("a truncation degree requires a grading")
        if self.trunc_grading is None:
            self.trunc_grading = self.grading

    @property
    def dim(self) -> int:
        return len(self.names)

    def degree(self, i: int) -> int:
        return self.grading[i] if self.grading is not None else 0

    def gate_degree(self, i: int) -> int:
        return self.trunc_grading[i] if self.trunc_grading is not None else 0

    def gate_ok(self, *indices: int) -> bool:
        """True when products over these basis indices are exactly representable."""
        if self.truncation is None:
            return True
        return sum(self.gate_degree(i) for i in indices) <= self.truncation

    def gate_of(self, vec: Vec) -> int:
        """Largest truncation degree in the support of a sparse vector."""
        return max((self.gate_degree(i) for i in vec), default=0)

    # -- pair interface -------------------------------------------------------

    def unit_vec(self) -> Vec:
        return dict(self.unit)

    def mul_pair(self, i: int, j: int) -> Vec:
        return self.mult[i][j]

    def braid_pair(self, i: int, j: int):
        return self.braiding.braid_pair(i, j)

    def comul_atom(self, i: int):
        return self.comult[i]

    def counit_atom(self, i: int) -> Scalar:
        return self.counit[i]

    def antipode_atom(self, i: int) -> Vec:
        if self.antipode is None:
            raise ValueError("no antipode stored")
        return self.antipode[i]

    # -- linear extensions ------------------------------------------------------

    def basis_vec(self, i: int) -> Vec:
        return {i: ONE}

    def multiply(self, a: Vec, b: Vec) -> Vec:
        out: Vec = {}
        for i, ca in a.items():
            row = self.mult[i]
            for j, cb in b.items():
                vadd_into(out, row[j], ca * cb)
        return out

    def opposite_multiply(self, a: Vec, b: Vec) -> Vec:
        w = tensor(lift(a), lift(b))
        return unlift(mul_at(self, braid_at(self, w, 0), 0))

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

    def commutator(self, a: Vec, b: Vec) -> Vec:
        return unlift(commutator(self, lift(a), lift(b)))

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

def _compare(h, report, axiom, witness, lhs, rhs):
    report.checked += 1
    if not vec_equal(lhs, rhs):
        report.record(axiom, tuple(h.names[i] for i in witness),
                      render_tensor(h, lhs), render_tensor(h, rhs))


def check_braided_algebra(h: StructureBialgebra) -> ValidationReport:
    """Associativity, unit laws, and compatibility of product with braiding."""
    report = ValidationReport("braided algebra")
    d = h.dim
    unit = lift(h.unit_vec())
    for i in range(d):
        e = lift(h.basis_vec(i))
        _compare(h, report, "unit-left", (i,), mul_at(h, tensor(unit, e), 0), e)
        _compare(h, report, "unit-right", (i,), mul_at(h, tensor(e, unit), 0), e)
        _compare(h, report, "unit-braid-left", (i,),
                 braid_at(h, tensor(unit, e), 0), tensor(e, unit))
        _compare(h, report, "unit-braid-right", (i,),
                 braid_at(h, tensor(e, unit), 0), tensor(unit, e))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                w = {(i, j, k): ONE}
                if h.gate_ok(i, j, k):
                    _compare(h, report, "associativity", (i, j, k),
                             mul_at(h, mul_at(h, w, 0), 0),
                             mul_at(h, mul_at(h, w, 1), 0))
                else:
                    report.skipped += 1
                if h.gate_ok(i, j):
                    _compare(h, report, "braid-mult-left", (i, j, k),
                             braid_at(h, mul_at(h, w, 0), 0),
                             mul_at(h, braid_at(h, braid_at(h, w, 1), 0), 1))
                else:
                    report.skipped += 1
                if h.gate_ok(j, k):
                    _compare(h, report, "braid-mult-right", (i, j, k),
                             braid_at(h, mul_at(h, w, 1), 0),
                             mul_at(h, braid_at(h, braid_at(h, w, 0), 1), 0))
                else:
                    report.skipped += 1
    if h.truncation is not None:
        report.note = f"degree-aware below truncation {h.truncation}"
    return report


def check_braided_coalgebra(h: StructureBialgebra) -> ValidationReport:
    """Coassociativity, counit laws, and compatibility of coproduct with braiding."""
    report = ValidationReport("braided coalgebra")
    d = h.dim
    for i in range(d):
        e = lift(h.basis_vec(i))
        de = slot_split(e, 0, h.comul_atom)
        _compare(h, report, "coassociativity", (i,),
                 slot_split(de, 0, h.comul_atom), slot_split(de, 1, h.comul_atom))
        _compare(h, report, "counit-left", (i,), slot_scalar(de, 0, h.counit_atom), e)
        _compare(h, report, "counit-right", (i,), slot_scalar(de, 1, h.counit_atom), e)
    for i in range(d):
        for j in range(d):
            w = {(i, j): ONE}
            cw = braid_at(h, w, 0)
            _compare(h, report, "braid-comul-left", (i, j),
                     slot_split(cw, 0, h.comul_atom),
                     braid_at(h, braid_at(h, slot_split(w, 1, h.comul_atom), 0), 1))
            _compare(h, report, "braid-comul-right", (i, j),
                     slot_split(cw, 1, h.comul_atom),
                     braid_at(h, braid_at(h, slot_split(w, 0, h.comul_atom), 1), 0))
            _compare(h, report, "counit-braid-left", (i, j),
                     slot_scalar(cw, 0, h.counit_atom),
                     vscale({(i,): ONE}, h.counit[j]))
            _compare(h, report, "counit-braid-right", (i, j),
                     slot_scalar(cw, 1, h.counit_atom),
                     vscale({(j,): ONE}, h.counit[i]))
    return report


def check_braided_bialgebra(h: StructureBialgebra) -> ValidationReport:
    """Coproduct and counit are morphisms onto the braided tensor-square algebra."""
    report = ValidationReport("braided bialgebra")
    d = h.dim
    unit = lift(h.unit_vec())
    _compare(h, report, "comul-unit", (), slot_split(unit, 0, h.comul_atom),
             tensor(unit, unit))
    report.checked += 1
    if not h.counit_of(h.unit_vec()).is_one():
        report.record("counit-unit", (), str(h.counit_of(h.unit_vec())), "1")
    for i in range(d):
        for j in range(d):
            if not h.gate_ok(i, j):
                report.skipped += 1
                continue
            w = {(i, j): ONE}
            prod = mul_at(h, w, 0)
            lhs = slot_split(prod, 0, h.comul_atom)
            rhs = square_product(h, tensor(slot_split({(i,): ONE}, 0, h.comul_atom),
                                           slot_split({(j,): ONE}, 0, h.comul_atom)))
            _compare(h, report, "comul-mult", (i, j), lhs, rhs)
            report.checked += 1
            eps_prod = h.counit_of(unlift(prod))
            if not (eps_prod - h.counit[i] * h.counit[j]).is_zero():
                report.record("counit-mult", (h.names[i], h.names[j]),
                              str(eps_prod), str(h.counit[i] * h.counit[j]))
    if h.truncation is not None:
        report.note = f"degree-aware below truncation {h.truncation}"
    return report


def check_antipode(h: StructureBialgebra) -> ValidationReport:
    """Convolution-inverse property and braided compatibility of the antipode."""
    if h.antipode is None:
        raise ValueError("no antipode stored")
    report = ValidationReport("antipode")
    d = h.dim
    unit = h.unit_vec()
    for i in range(d):
        e = lift(h.basis_vec(i))
        de = slot_split(e, 0, h.comul_atom)
        lhs = mul_at(h, slot_apply(de, 0, h.antipode_atom), 0)
        rhs = mul_at(h, slot_apply(de, 1, h.antipode_atom), 0)
        target = lift(vscale(unit, h.counit[i]))
        _compare(h, report, "antipode-left", (i,), lhs, target)
        _compare(h, report, "antipode-right", (i,), rhs, target)
        _compare(h, report, "antipode-comul", (i,),
                 slot_apply(slot_apply(braid_at(h, de, 0), 0, h.antipode_atom), 1, h.antipode_atom),
                 slot_split(slot_apply(e, 0, h.antipode_atom), 0, h.comul_atom))
    for i in range(d):
        for j in range(d):
            w = {(i, j): ONE}
            _compare(h, report, "antipode-braid-left", (i, j),
                     slot_apply(braid_at(h, w, 0), 0, h.antipode_atom),
                     braid_at(h, slot_apply(w, 1, h.antipode_atom), 0))
            _compare(h, report, "antipode-braid-right", (i, j),
                     slot_apply(braid_at(h, w, 0), 1, h.antipode_atom),
                     braid_at(h, slot_apply(w, 0, h.antipode_atom), 0))
            if h.gate_ok(i, j):
                _compare(h, report, "antipode-mult", (i, j),
                         mul_at(h, braid_at(h, slot_apply(slot_apply(w, 0, h.antipode_atom),
                                                          1, h.antipode_atom), 0), 0),
                         slot_apply(mul_at(h, w, 0), 0, h.antipode_atom))
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


def check_commutator_coproduct(h: StructureBialgebra, a: Vec, b: Vec) -> bool:
    """The coproduct of a braided commutator equals the tensor-square
    commutator of the coproducts, exactly."""
    lhs = h.comultiply(h.commutator(a, b))
    rhs = square_commutator(h, h.comultiply(a), h.comultiply(b))
    return vec_equal(lhs, rhs)


def check_commutator_coproduct_all(h: StructureBialgebra) -> ValidationReport:
    report = ValidationReport("commutator-coproduct compatibility")
    for i in range(h.dim):
        for j in range(h.dim):
            if not h.gate_ok(i, j):
                report.skipped += 1
                continue
            report.checked += 1
            if not check_commutator_coproduct(h, h.basis_vec(i), h.basis_vec(j)):
                report.record("commutator-coproduct", (h.names[i], h.names[j]), "...", "...")
    return report


def is_c_commutative(h: StructureBialgebra) -> bool:
    for i in range(h.dim):
        for j in range(h.dim):
            if not h.gate_ok(i, j):
                continue
            if not vec_equal(h.multiply(h.basis_vec(i), h.basis_vec(j)),
                             h.opposite_multiply(h.basis_vec(i), h.basis_vec(j))):
                return False
    return True


def is_c_cocommutative(h: StructureBialgebra) -> bool:
    for i in range(h.dim):
        de = slot_split({(i,): ONE}, 0, h.comul_atom)
        if not vec_equal(de, braid_at(h, de, 0)):
            return False
    return True


def augmentation_ideal(h: StructureBialgebra) -> Subspace:
    """The kernel of the counit."""
    return kernel([{0: c} for c in h.counit], ambient=h)
