"""Reference axiom checkers: the slot-operation evaluation, kept as an oracle.

Each function evaluates both sides of every axiom through the generic
``multilinear`` slot operations (``braid_at``, ``mul_at``, ``slot_split``,
...), one basis tuple at a time.  The engine's checkers compose the
structure rows directly; the tests require both to give identical reports,
counters, witnesses and verdicts.
"""
from __future__ import annotations

from braidpbw.braided_space import GenericBraiding
from braidpbw.findim_hopf import StructureBialgebra, render_tensor
from braidpbw.multilinear import (
    braid_at,
    lift,
    mul_at,
    slot_apply,
    slot_scalar,
    slot_split,
    square_commutator,
    square_product,
    tensor,
    unlift,
    vec_equal,
    vscale,
)
from braidpbw.reporting import ValidationReport
from braidpbw.scalars import ONE


def braid_check(c: GenericBraiding) -> bool:
    """Exhaustive check of the braid equation on all basis triples."""
    d = c.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                w = {(i, j, k): ONE}
                lhs = braid_at(c, braid_at(c, braid_at(c, w, 0), 1), 0)
                rhs = braid_at(c, braid_at(c, braid_at(c, w, 1), 0), 1)
                if not vec_equal(lhs, rhs):
                    return False
    return True


def is_symmetric(c: GenericBraiding) -> bool:
    """True iff applying the braiding twice is the identity on all basis pairs."""
    d = c.dim
    for i in range(d):
        for j in range(d):
            w = {(i, j): ONE}
            if not vec_equal(braid_at(c, braid_at(c, w, 0), 0), w):
                return False
    return True


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


def _commutator_coproduct_sides(h: StructureBialgebra, a, b):
    """The coproduct of the braided commutator [a, b], and the tensor-square
    commutator of the coproducts of a and b."""
    return (h.comultiply(h.commutator(a, b)),
            square_commutator(h, h.comultiply(a), h.comultiply(b)))


def check_commutator_coproduct(h: StructureBialgebra, a, b) -> bool:
    """The coproduct of a braided commutator equals the tensor-square
    commutator of the coproducts, exactly."""
    return vec_equal(*_commutator_coproduct_sides(h, a, b))


def check_commutator_coproduct_all(h: StructureBialgebra) -> ValidationReport:
    report = ValidationReport("commutator-coproduct compatibility")
    for i in range(h.dim):
        for j in range(h.dim):
            if not h.gate_ok(i, j):
                report.skipped += 1
                continue
            _compare(h, report, "commutator-coproduct", (i, j),
                     *_commutator_coproduct_sides(h, h.basis_vec(i), h.basis_vec(j)))
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
