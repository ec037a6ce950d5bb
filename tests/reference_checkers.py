"""Reference checkers and coinvariant stages: the slot-operation evaluation,
kept as an oracle.

Each function evaluates both sides of every axiom, or each induced
structure map, through the generic ``multilinear`` slot operations
(``braid_at``, ``mul_at``, ``slot_split``, ...), one basis tuple at a time.
The engine composes the structure rows directly; the tests require both to
give identical reports, counters, witnesses, verdicts and structure
constants.  The pair interface of a structure-constant bialgebra
(``pair_ops``, whose ``mul`` and ``braid`` read its product and braiding
rows), the atom maps, the opposite product and the braided commutator that
the slot operations apply are defined here, as is the slot contraction
``contract``, since the engine does not use them.

So are the tensor-square combinators (the square product, braiding and
commutator, and the expansion of the square commutator) and
``FreeAlgebra``, the free braided algebra on a braiding of its generators
in the same pair interface; the engine forms neither.

The braided symmetric algebra's full-word rank oracle lives here too: an
elimination over all words of one weight at once, and the canonical map of
the PBW verdict built on it, with the ideal checked on every word at every
position.
"""
from __future__ import annotations

from types import SimpleNamespace

from braidpbw.braided_space import GenericBraiding
from braidpbw.findim_hopf import StructureBialgebra, render_tensor
from braidpbw.filtration import expand_products, transported_bialgebra
from braidpbw.linalg import Coordinates, Subspace, echelon, kernel
from braidpbw.multilinear import (
    add_term,
    braid_at,
    mul_at,
    slot_apply,
    slot_scalar,
    slot_split,
    vadd_into,
    vec_equal,
)
from braidpbw.reporting import CoinvariantsError, SpanError, ValidationReport
from braidpbw.scalars import ONE, ZERO


# ---------------------------------------------------------------------------
# tensor-square combinators (generic over the pair interface)
# ---------------------------------------------------------------------------

def tensor(a, b) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            c = ca * cb
            if not c.is_zero():
                out[ka + kb] = c
    return out


def vsub(a, b) -> dict:
    out = dict(a)
    for k, c in b.items():
        add_term(out, k, -c)
    return out


def opposite_mul_at(ops, vec, i: int) -> dict:
    return mul_at(ops, braid_at(ops, vec, i), i)


def slot_commutator(ops, a, b) -> dict:
    """Braided commutator of two 1-slot tensors: mul(id - braid)(a x b)."""
    w = tensor(a, b)
    return mul_at(ops, vsub(w, braid_at(ops, w, 0)), 0)


def square_braiding(ops, w) -> dict:
    """The braiding of the tensor-square algebra on a 4-slot tensor."""
    w = braid_at(ops, w, 1)
    w = braid_at(ops, w, 2)
    w = braid_at(ops, w, 0)
    return braid_at(ops, w, 1)


def square_product(ops, w) -> dict:
    """Product of the tensor-square algebra on a 4-slot tensor."""
    w = braid_at(ops, w, 1)
    w = mul_at(ops, w, 0)
    return mul_at(ops, w, 1)


def square_commutator(ops, x2, y2) -> dict:
    """Braided commutator of the tensor-square algebra on two 2-slot tensors."""
    w = tensor(x2, y2)
    return square_product(ops, vsub(w, square_braiding(ops, w)))


def square_commutator_expansion_sides(ops, a, b, c, d,
                                      drop_opposite_term: bool = False) -> tuple[dict, dict]:
    """Both sides of the expansion of the tensor-square commutator.

    The left side is [a x b, c x d] in the tensor-square algebra.  The right
    side expands it through the commutator/product/braiding of the base
    algebra; ``drop_opposite_term`` deliberately omits the opposite-product
    summand so tests can confirm the identity is sensitive to it.
    """
    lhs = square_commutator(ops, tensor(a, b), tensor(c, d))

    w = tensor(tensor(a, b), tensor(c, d))
    v = braid_at(ops, w, 1)
    # commutator on slots (0,1), product on the remaining pair
    t1 = mul_at(ops, vsub(v, braid_at(ops, v, 0)), 0)
    t1 = mul_at(ops, t1, 1)
    rhs = t1
    if not drop_opposite_term:
        u = opposite_mul_at(ops, v, 0)
        t2 = mul_at(ops, vsub(u, braid_at(ops, u, 1)), 1)
        rhs = vadd_into(dict(rhs), t2)
    z = braid_at(ops, w, 1)
    z = braid_at(ops, z, 2)
    z = braid_at(ops, z, 0)
    z2 = vsub(z, braid_at(ops, braid_at(ops, z, 1), 1))
    z2 = mul_at(ops, z2, 0)
    z2 = mul_at(ops, z2, 1)
    rhs = vadd_into(dict(rhs), z2)
    return lhs, rhs


def check_square_commutator_expansion(ops, a, b, c, d) -> bool:
    """Verify the tensor-square commutator expansion on one quadruple."""
    lhs, rhs = square_commutator_expansion_sides(ops, a, b, c, d)
    return vec_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# the free braided algebra
# ---------------------------------------------------------------------------

class FreeAlgebra:
    """The free braided algebra T(V) on a braiding of its generators, in the
    pair interface.  Atoms are words, tuples of generator indices: the
    product concatenates them, and the braiding moves one block of letters
    past another through the ladder of generator rows."""

    def __init__(self, braiding: GenericBraiding):
        self.braiding = braiding
        self.dim = braiding.dim

    def mul(self, u: tuple, v: tuple) -> dict:
        return {u + v: ONE}

    def braid(self, u: tuple, v: tuple) -> dict:
        """Block-exchange braiding on a pair of words."""
        m = len(v)
        return {(w[:m], w[m:]): c
                for w, c in self.block_braiding(len(u), m, {u + v: ONE}).items()}

    def apply_ci(self, elem: dict, i: int) -> dict:
        """Apply the braiding at letter slots (i, i+1), 1-indexed."""
        out: dict = {}
        for w, c in elem.items():
            n = len(w)
            if not 1 <= i <= n - 1:
                raise ValueError(f"position {i} out of range for a degree-{n} word")
            for (k, l), s in self.braiding.rows[w[i - 1]][w[i]].items():
                add_term(out, w[: i - 1] + (k, l) + w[i + 1:], c * s)
        return out

    def block_braiding(self, n: int, m: int, elem: dict) -> dict:
        """Exchange a degree-n block past a degree-m block.

        The ladder composition applies, for g = 1..m, the adjacent braidings
        at positions g+n-1 down to g; the empty-block cases are the identity.
        """
        for w in elem:
            if len(w) != n + m:
                raise ValueError("element is not homogeneous of degree n + m")
        if n == 0 or m == 0:
            return dict(elem)
        out = elem
        for g in range(1, m + 1):
            for idx in range(g + n - 1, g - 1, -1):
                out = self.apply_ci(out, idx)
        return out


# ---------------------------------------------------------------------------
# the slot-operation interface of a structure-constant bialgebra
# ---------------------------------------------------------------------------

def lift(vec) -> dict:
    """Wrap an atom-keyed dict as a 1-slot tensor."""
    return {(k,): c for k, c in vec.items()}


def unlift(vec) -> dict:
    """A 1-slot tensor as an atom-keyed dict."""
    return {k[0]: c for k, c in vec.items()}


def contract(w, slot: int, f) -> dict:
    """Pair slot 0 or 1 of a 2-tensor with the functional f; the other leg
    remains."""
    out: dict = {}
    for key, c in w.items():
        fv = f.get(key[slot])
        if fv is not None:
            add_term(out, key[1 - slot], c * fv)
    return out


def vscale(vec, factor) -> dict:
    if factor.is_zero():
        return {}
    return {k: factor * c for k, c in vec.items()}


def comul_atom(h: StructureBialgebra):
    """e_i |-> Delta(e_i), the atom map ``slot_split`` applies."""
    return h.comult.__getitem__


def counit_atom(h: StructureBialgebra):
    """e_i |-> eps(e_i), the atom functional ``slot_scalar`` applies."""
    return h.counit.__getitem__


def antipode_atom(h: StructureBialgebra):
    """e_i |-> S(e_i), the atom map ``slot_apply`` applies."""
    if h.antipode is None:
        raise ValueError("no antipode stored")
    return h.antipode.__getitem__


def pair_ops(x):
    """The pair interface, for ``mul_at`` and ``braid_at``, of a braiding
    table, or of a structure-constant bialgebra's product and braiding rows."""
    if isinstance(x, GenericBraiding):
        return SimpleNamespace(braid=lambda i, j: x.rows[i][j])
    return SimpleNamespace(mul=lambda i, j: x.mult[i][j], braid=lambda i, j: x.braiding.rows[i][j])


def gate_ok(h: StructureBialgebra, *indices: int) -> bool:
    """True when products over these basis indices are exactly representable:
    their truncation degrees sum to at most the truncation, when there is one."""
    if h.truncation is None:
        return True
    return sum(h.trunc_grading[i] for i in indices) <= h.truncation


def opposite_multiply(h: StructureBialgebra, a, b) -> dict:
    """m(c(a x b))."""
    return unlift(opposite_mul_at(pair_ops(h), tensor(lift(a), lift(b)), 0))


def commutator(h: StructureBialgebra, a, b) -> dict:
    """The braided commutator [a, b] = ab - m(c(a x b))."""
    return unlift(slot_commutator(pair_ops(h), lift(a), lift(b)))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def braid_check(c: GenericBraiding) -> bool:
    """Exhaustive check of the braid equation on all basis triples."""
    d, c = c.dim, pair_ops(c)
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
    d, c = c.dim, pair_ops(c)
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
    d, ops = h.dim, pair_ops(h)
    unit = lift(h.unit)
    for i in range(d):
        e = {(i,): ONE}
        _compare(h, report, "unit-left", (i,), mul_at(ops, tensor(unit, e), 0), e)
        _compare(h, report, "unit-right", (i,), mul_at(ops, tensor(e, unit), 0), e)
        _compare(h, report, "unit-braid-left", (i,),
                 braid_at(ops, tensor(unit, e), 0), tensor(e, unit))
        _compare(h, report, "unit-braid-right", (i,),
                 braid_at(ops, tensor(e, unit), 0), tensor(unit, e))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                w = {(i, j, k): ONE}
                if gate_ok(h, i, j, k):
                    _compare(h, report, "associativity", (i, j, k),
                             mul_at(ops, mul_at(ops, w, 0), 0),
                             mul_at(ops, mul_at(ops, w, 1), 0))
                else:
                    report.skipped += 1
                if gate_ok(h, i, j):
                    _compare(h, report, "braid-mult-left", (i, j, k),
                             braid_at(ops, mul_at(ops, w, 0), 0),
                             mul_at(ops, braid_at(ops, braid_at(ops, w, 1), 0), 1))
                else:
                    report.skipped += 1
                if gate_ok(h, j, k):
                    _compare(h, report, "braid-mult-right", (i, j, k),
                             braid_at(ops, mul_at(ops, w, 1), 0),
                             mul_at(ops, braid_at(ops, braid_at(ops, w, 0), 1), 0))
                else:
                    report.skipped += 1
    if h.truncation is not None:
        report.note = f"degree-aware below truncation {h.truncation}"
    return report


def check_braided_coalgebra(h: StructureBialgebra) -> ValidationReport:
    """Coassociativity, counit laws, and compatibility of coproduct with braiding."""
    report = ValidationReport("braided coalgebra")
    d, ops = h.dim, pair_ops(h)
    for i in range(d):
        e = {(i,): ONE}
        de = slot_split(e, 0, comul_atom(h))
        _compare(h, report, "coassociativity", (i,),
                 slot_split(de, 0, comul_atom(h)), slot_split(de, 1, comul_atom(h)))
        _compare(h, report, "counit-left", (i,), slot_scalar(de, 0, counit_atom(h)), e)
        _compare(h, report, "counit-right", (i,), slot_scalar(de, 1, counit_atom(h)), e)
    for i in range(d):
        for j in range(d):
            w = {(i, j): ONE}
            cw = braid_at(ops, w, 0)
            _compare(h, report, "braid-comul-left", (i, j),
                     slot_split(cw, 0, comul_atom(h)),
                     braid_at(ops, braid_at(ops, slot_split(w, 1, comul_atom(h)), 0), 1))
            _compare(h, report, "braid-comul-right", (i, j),
                     slot_split(cw, 1, comul_atom(h)),
                     braid_at(ops, braid_at(ops, slot_split(w, 0, comul_atom(h)), 1), 0))
            _compare(h, report, "counit-braid-left", (i, j),
                     slot_scalar(cw, 0, counit_atom(h)),
                     vscale({(i,): ONE}, h.counit[j]))
            _compare(h, report, "counit-braid-right", (i, j),
                     slot_scalar(cw, 1, counit_atom(h)),
                     vscale({(j,): ONE}, h.counit[i]))
    return report


def check_braided_bialgebra(h: StructureBialgebra) -> ValidationReport:
    """Coproduct and counit are morphisms onto the braided tensor-square algebra."""
    report = ValidationReport("braided bialgebra")
    d, ops = h.dim, pair_ops(h)
    unit = lift(h.unit)
    _compare(h, report, "comul-unit", (), slot_split(unit, 0, comul_atom(h)),
             tensor(unit, unit))
    report.checked += 1
    if not h.counit_of(h.unit).is_one():
        report.record("counit-unit", (), str(h.counit_of(h.unit)), "1")
    for i in range(d):
        for j in range(d):
            if not gate_ok(h, i, j):
                report.skipped += 1
                continue
            w = {(i, j): ONE}
            prod = mul_at(ops, w, 0)
            lhs = slot_split(prod, 0, comul_atom(h))
            rhs = square_product(ops, tensor(slot_split({(i,): ONE}, 0, comul_atom(h)),
                                             slot_split({(j,): ONE}, 0, comul_atom(h))))
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
    d, ops = h.dim, pair_ops(h)
    unit = h.unit
    for i in range(d):
        e = {(i,): ONE}
        de = slot_split(e, 0, comul_atom(h))
        lhs = mul_at(ops, slot_apply(de, 0, antipode_atom(h)), 0)
        rhs = mul_at(ops, slot_apply(de, 1, antipode_atom(h)), 0)
        target = lift(vscale(unit, h.counit[i]))
        _compare(h, report, "antipode-left", (i,), lhs, target)
        _compare(h, report, "antipode-right", (i,), rhs, target)
        _compare(h, report, "antipode-comul", (i,),
                 slot_apply(slot_apply(braid_at(ops, de, 0), 0, antipode_atom(h)),
                            1, antipode_atom(h)),
                 slot_split(slot_apply(e, 0, antipode_atom(h)), 0, comul_atom(h)))
    for i in range(d):
        for j in range(d):
            w = {(i, j): ONE}
            _compare(h, report, "antipode-braid-left", (i, j),
                     slot_apply(braid_at(ops, w, 0), 0, antipode_atom(h)),
                     braid_at(ops, slot_apply(w, 1, antipode_atom(h)), 0))
            _compare(h, report, "antipode-braid-right", (i, j),
                     slot_apply(braid_at(ops, w, 0), 1, antipode_atom(h)),
                     braid_at(ops, slot_apply(w, 0, antipode_atom(h)), 0))
            if gate_ok(h, i, j):
                _compare(h, report, "antipode-mult", (i, j),
                         mul_at(ops, braid_at(ops, slot_apply(slot_apply(w, 0, antipode_atom(h)),
                                                              1, antipode_atom(h)), 0), 0),
                         slot_apply(mul_at(ops, w, 0), 0, antipode_atom(h)))
            else:
                report.skipped += 1
    return report


def _commutator_coproduct_sides(h: StructureBialgebra, a, b):
    """The coproduct of the braided commutator [a, b], and the tensor-square
    commutator of the coproducts of a and b."""
    return (h.comultiply(commutator(h, a, b)),
            square_commutator(pair_ops(h), h.comultiply(a), h.comultiply(b)))


def check_commutator_coproduct(h: StructureBialgebra, a, b) -> bool:
    """The coproduct of a braided commutator equals the tensor-square
    commutator of the coproducts, exactly."""
    return vec_equal(*_commutator_coproduct_sides(h, a, b))


def check_commutator_coproduct_all(h: StructureBialgebra) -> ValidationReport:
    report = ValidationReport("commutator-coproduct compatibility")
    for i in range(h.dim):
        for j in range(h.dim):
            if not gate_ok(h, i, j):
                report.skipped += 1
                continue
            _compare(h, report, "commutator-coproduct", (i, j),
                     *_commutator_coproduct_sides(h, {i: ONE}, {j: ONE}))
    return report


def is_c_commutative(h: StructureBialgebra) -> bool:
    for i in range(h.dim):
        for j in range(h.dim):
            if not gate_ok(h, i, j):
                continue
            if not vec_equal(h.mult[i][j], opposite_multiply(h, {i: ONE}, {j: ONE})):
                return False
    return True


def is_c_cocommutative(h: StructureBialgebra) -> bool:
    ops = pair_ops(h)
    for i in range(h.dim):
        de = slot_split({(i,): ONE}, 0, comul_atom(h))
        if not vec_equal(de, braid_at(ops, de, 0)):
            return False
    return True


def is_categorical(c: GenericBraiding, x: Subspace) -> bool:
    """True iff c(X x V) lies in V x X and c(V x X) lies in X x V, exactly:
    each image contracted against one annihilator functional at a time."""
    funcs = x.functionals()
    for xv in x.rows:
        for i in range(c.dim):
            left: dict = {}
            right: dict = {}
            for a, ca in xv.items():
                vadd_into(left, c.rows[a][i], ca)
                vadd_into(right, c.rows[i][a], ca)
            if any(contract(left, 1, f) or contract(right, 0, f) for f in funcs):
                return False
    return True


# ---------------------------------------------------------------------------
# coinvariants
# ---------------------------------------------------------------------------

def projection_pi(gr: StructureBialgebra) -> ValidationReport:
    """The degree-zero projection pi against products, coproducts and the
    unit, with pi applied to each side through the slot operations."""
    report = ValidationReport("degree-zero projection morphism")
    ops = pair_ops(gr)
    pi_rows = [({i: ONE} if gr.degree(i) == 0 else {}) for i in range(gr.dim)]

    def proj(w, slots):
        for s in slots:
            w = slot_apply(w, s, lambda t: pi_rows[t])
        return w

    for i in range(gr.dim):
        for j in range(gr.dim):
            if not gate_ok(gr, i, j):
                report.skipped += 1
                continue
            w = {(i, j): ONE}
            _compare(gr, report, "projection-product", (i, j),
                     proj(mul_at(ops, w, 0), (0,)), mul_at(ops, proj(w, (0, 1)), 0))
    for i in range(gr.dim):
        w = {(i,): ONE}
        _compare(gr, report, "projection-coproduct", (i,),
                 proj(slot_split(w, 0, comul_atom(gr)), (0, 1)),
                 slot_split(proj(w, (0,)), 0, comul_atom(gr)))
    report.checked += 1
    unit = lift(gr.unit)
    if not vec_equal(proj(unit, (0,)), unit):
        report.record("projection-unit", (), "pi(1)", "1")
    return report


def pi_map(gr: StructureBialgebra, vec) -> dict:
    """a |-> a_1 S(pi(a_2)): first coproduct leg times the antipode of the
    degree-zero projection of the second leg."""
    w = slot_split(lift(vec), 0, comul_atom(gr))
    w = {key: c for key, c in w.items() if gr.degree(key[1]) == 0}
    w = slot_apply(w, 1, antipode_atom(gr))
    return unlift(mul_at(pair_ops(gr), w, 0))


def ad_eval(gr: StructureBialgebra, kvec, rvec) -> dict:
    """Braided conjugation: multiply the first coproduct leg of k, braid the
    second past the argument, close with the antipode and multiply down."""
    ops = pair_ops(gr)
    w = tensor(lift(kvec), lift(rvec))
    w = slot_split(w, 0, comul_atom(gr))
    w = braid_at(ops, w, 1)
    w = slot_apply(w, 2, antipode_atom(gr))
    w = mul_at(ops, w, 0)
    w = mul_at(ops, w, 0)
    return unlift(w)


def compute_R(gr: StructureBialgebra) -> dict:
    """The coinvariants as the image of pi_map, and R's coproduct through
    pi_map, its K-action through ad_eval, its K-coaction, the braided pairs
    of the representatives and the braiding assembled from them, over the
    coinvariant basis; raises CoinvariantsError where the engine's
    ``compute_R`` does."""
    d = gr.dim
    images = [pi_map(gr, {i: ONE}) for i in range(d)]
    defects = []
    for i in range(d):
        out = {key: c for key, c in gr.comult[i].items() if gr.degree(key[1]) == 0}
        for u, cu in gr.unit.items():
            vadd_into(out, {(i, u): -cu})
        defects.append(out)
    r_sub = Subspace.span(d, images)
    if r_sub != kernel(defects):
        raise CoinvariantsError(
            "the two descriptions of the coinvariants disagree: "
            f"image dim {r_sub.dim}, kernel dim {kernel(defects).dim}")
    reps = list(r_sub.rows)
    degrees = []
    for vec in reps:
        degs = {gr.degree(i) for i in vec}
        if len(degs) != 1:
            raise CoinvariantsError("coinvariant basis vector is not homogeneous")
        degrees.append(degs.pop())
    if degrees != sorted(degrees):
        raise CoinvariantsError("parent basis is not sorted by degree")
    k_indices = tuple(gr.degree_indices(0))
    try:
        return _induced_structure(gr, r_sub, reps, degrees, k_indices)
    except SpanError as exc:
        raise CoinvariantsError("induced operation left the coinvariant subspace") from exc


def _induced_structure(gr, r_sub, reps, degrees, k_indices) -> dict:
    basis, ops = Coordinates(gr.dim, reps), pair_ops(gr)
    rdim = len(reps)
    comult = []
    for a in range(rdim):
        w = slot_split(lift(reps[a]), 0, comul_atom(gr))
        w = slot_apply(w, 0, lambda i: pi_map(gr, {i: ONE}))
        comult.append(basis.coords_pair(w))
    action = tuple(tuple(basis.coords(ad_eval(gr, {k: ONE}, reps[b])) for b in range(rdim))
                   for k in k_indices)
    k_pos = {k: t for t, k in enumerate(k_indices)}
    coaction = []
    for a in range(rdim):
        by_left: dict = {}
        for (i, j), c in gr.comultiply(reps[a]).items():
            if gr.degree(i) == 0:
                by_left.setdefault(i, {})[j] = c
        coaction.append({(k_pos[i], rr): cr for i, legvec in by_left.items()
                         for rr, cr in basis.coords(legvec).items()})
    for a in range(rdim):
        acc: dict = {}
        for (kt, rr), c in coaction[a].items():
            vadd_into(acc, {rr: c * gr.counit[k_indices[kt]]})
        if not vec_equal(acc, {a: ONE}):
            raise CoinvariantsError("coaction fails counitality")
    braided = [[braid_at(ops, tensor(lift(reps[a]), lift(reps[b])), 0) for b in range(rdim)]
               for a in range(rdim)]
    braid_rows = [[{} for _ in range(rdim)] for _ in range(rdim)]
    for a in range(rdim):
        for b in range(rdim):
            ambient: dict = {}
            for (kt, rr), c in coaction[a].items():
                for (u, v), s in braided[rr][b].items():
                    for au, ca in ad_eval(gr, {k_indices[kt]: ONE}, {u: ONE}).items():
                        vadd_into(ambient, {(au, v): c * s * ca})
            braid_rows[a][b] = basis.coords_pair(ambient)
    braiding = GenericBraiding(braid_rows)
    if not braid_check(braiding):
        raise CoinvariantsError("induced braiding fails the braid equation")
    r_alg = transported_bialgebra(gr, basis, degrees, "r", basis.coords(gr.unit),
                                  expand_products(gr, basis), comult, braiding, None)
    return {"inclusion": r_sub, "k_indices": k_indices, "algebra": r_alg,
            "action": action, "coaction": tuple(coaction), "braided_reps": braided}


def is_central(b: StructureBialgebra, f_rows: list) -> bool:
    """Multiplication through the map is invariant under the braiding, on
    both sides."""
    for u in f_rows:
        if not u:
            continue
        for j in range(b.dim):
            if not all(gate_ok(b, i, j) for i in u):
                continue
            ev = {j: ONE}
            if not vec_equal(b.multiply(u, ev), opposite_multiply(b, u, ev)):
                return False
            if not vec_equal(b.multiply(ev, u), opposite_multiply(b, ev, u)):
                return False
    return True


def is_cocentral(a: StructureBialgebra, f_rows: list) -> bool:
    """Applying the map to either coproduct leg is invariant under
    pre-composition with the braiding."""
    for i in range(a.dim):
        cop = a.comult[i]
        braided = braid_at(pair_ops(a), cop, 0)
        for slot in (0, 1):
            lhs = slot_apply(cop, slot, lambda t: f_rows[t])
            rhs = slot_apply(braided, slot, lambda t: f_rows[t])
            if not vec_equal(lhs, rhs):
                return False
    return True


def braiding_matches_restriction(coinv) -> bool:
    """The induced braiding on R against the ambient braiding restricted to
    R (x) R, in ambient coordinates."""
    ops, r_alg, reps = pair_ops(coinv.parent), coinv.algebra, coinv.inclusion.rows
    for a in range(r_alg.dim):
        for b in range(r_alg.dim):
            ambient = braid_at(ops, tensor(lift(reps[a]), lift(reps[b])), 0)
            induced: dict = {}
            for (ra, rb), c in r_alg.braiding.rows[a][b].items():
                vadd_into(induced, tensor(lift(reps[ra]), lift(reps[rb])), c)
            if not vec_equal(ambient, induced):
                return False
    return True


def graded_projection_identity(gr: StructureBialgebra) -> bool:
    """(pi x id) c = c (id x pi) on every basis pair."""
    ops = pair_ops(gr)
    pi_rows = [({i: ONE} if gr.degree(i) == 0 else {}) for i in range(gr.dim)]
    for i in range(gr.dim):
        for j in range(gr.dim):
            w = {(i, j): ONE}
            lhs = slot_apply(braid_at(ops, w, 0), 0, lambda t: pi_rows[t])
            rhs = braid_at(ops, slot_apply(w, 1, lambda t: pi_rows[t]), 0)
            if not vec_equal(lhs, rhs):
                return False
    return True


def check_braiding_collapse(gr: StructureBialgebra, coinv) -> dict:
    central = is_central(gr, [{i: ONE} for i in coinv.k_indices])
    cocentral = is_cocentral(gr, [({i: ONE} if gr.degree(i) == 0 else {})
                                  for i in range(gr.dim)])
    matches = braiding_matches_restriction(coinv)
    hypothesis = central or cocentral
    if hypothesis:
        status = "confirmed" if matches else "violated"
    else:
        status = "vacuous_equal" if matches else "vacuous_differs"
    return {"i_central": central, "pi_cocentral": cocentral, "hypothesis_holds": hypothesis,
            "c_r_equals_c": matches, "graded_morphism_identity": graded_projection_identity(gr),
            "status": status}


# ---------------------------------------------------------------------------
# PBW
# ---------------------------------------------------------------------------

def generators_intertwine(q, h: StructureBialgebra) -> bool:
    """The braiding of the target restricted to representative pairs equals
    the induced braiding of the generator space Q expressed through the
    representatives, each side formed by the slot operations."""
    ops, qc, reps = pair_ops(h), pair_ops(q.braiding), [{i: ONE} for i in q.indices]
    for a in range(q.dim):
        for b in range(q.dim):
            ambient = braid_at(ops, tensor(lift(reps[a]), lift(reps[b])), 0)
            induced: dict = {}
            for (x, y), s in braid_at(qc, {(a, b): ONE}, 0).items():
                vadd_into(induced, tensor(lift(reps[x]), lift(reps[y])), s)
            if not vec_equal(ambient, induced):
                return False
    return True


# ---------------------------------------------------------------------------
# the full-word rank oracle for the braided symmetric algebra
# ---------------------------------------------------------------------------

def weighted_words(dim: int, weights: list[int], degree: int) -> list[tuple]:
    """All words over dim letters whose weights sum to the given degree."""
    if any(w < 1 for w in weights):
        raise ValueError("generator weights must be >= 1")
    result: list[tuple] = []

    def rec(prefix: list[int], remaining: int) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for i in range(dim):
            if weights[i] <= remaining:
                prefix.append(i)
                rec(prefix, remaining - weights[i])
                prefix.pop()

    rec([], degree)
    return result


def tensor_ideal_complement(braiding: GenericBraiding, weights: list[int], degree: int):
    """Degree slice of the quotient of the free algebra by the ideal
    generated by the image of (id - c) on degree two, eliminated over all
    words of that weight at once.

    Returns (words, pivot column indices, complement words); the complement
    words are the standard monomials surviving in the quotient.  Columns are
    eliminated in descending lexicographic order, as in ``normal_forms``.
    """
    words = sorted(weighted_words(braiding.dim, weights, degree), reverse=True)
    index = {w: t for t, w in enumerate(words)}
    rows = []
    for w in words:
        for p in range(len(w) - 1):
            row = {index[w]: ONE}
            for (k, l), s in braiding.rows[w[p]][w[p + 1]].items():
                vadd_into(row, {index[w[:p] + (k, l) + w[p + 2:]]: -s})
            rows.append(row)
    _, pivots = echelon(rows)
    pivset = set(pivots)
    complement = sorted(words[t] for t in range(len(words)) if t not in pivset)
    return words, pivots, complement


def oracle_dimension(braiding: GenericBraiding, n: int) -> int:
    """Dimension of the degree-n slice of the quotient algebra, by exact rank
    over all d^n words."""
    return len(tensor_ideal_complement(braiding, [1] * braiding.dim, n)[2])


def canonical_map(q, h: StructureBialgebra, n_max: int) -> dict:
    """Per-degree data of the PBW verdict's canonical map, by the full-word
    elimination at each weight, with the symmetrising ideal checked on every
    word of that weight at every position."""
    out = {}
    degrees = [h.degree(i) for i in q.indices]
    product_cache: dict = {(): h.unit}

    def product_of(word: tuple) -> dict:
        if word not in product_cache:
            product_cache[word] = h.multiply(product_of(word[:-1]), {q.indices[word[-1]]: ONE})
        return product_cache[word]

    for n in range(1, n_max + 1):
        words, _, complement = tensor_ideal_complement(q.braiding, degrees, n)
        cols = h.degree_indices(n)
        col_pos = {i: t for t, i in enumerate(cols)}
        matrix = []
        for w in complement:
            row = [ZERO] * len(cols)
            for i, c in product_of(w).items():
                row[col_pos[i]] = c
            matrix.append(row)
        ideal_ok = True
        for w in words:
            for p in range(len(w) - 1):
                img = dict(product_of(w))
                for (k, l), s in q.braiding.rows[w[p]][w[p + 1]].items():
                    vadd_into(img, product_of(w[:p] + (k, l) + w[p + 2:]), -s)
                if img:
                    ideal_ok = False
                    break
            if not ideal_ok:
                break
        out[n] = {
            "monomials": complement,
            "matrix": matrix,
            "target_dim": len(cols),
            "sq_dim": len(complement),
            "ideal_maps_to_zero": ideal_ok,
        }
    return out
