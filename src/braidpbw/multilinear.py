"""Sparse evaluation of multilinear composites on tensor powers.

Elements of a k-fold tensor power are dicts mapping length-k tuples of
"atoms" to nonzero scalars.  An atom is whatever indexes a basis of the
underlying space: an integer for structure-constant algebras, a word
tuple for the free algebra.  The slot operations below are generic over
any object exposing the pair interface

    mul_pair(a, b)   -> dict[atom, Scalar]          (product of basis atoms)
    braid_pair(a, b) -> dict[(atom, atom), Scalar]  (braiding on basis atoms)

which is all the braided-commutator identities need.  They serve only the
square-commutator identities and the slot-by-slot evaluation that the tests
keep as an oracle; every stage of the engine composes structure rows
(``mult``, ``comult``, ``antipode`` and the braiding's row table) directly.
"""
from __future__ import annotations

from .scalars import Scalar

Vec = dict  # the engine's one sparse vector type: key -> nonzero Scalar


def vadd_into(acc: Vec, vec: Vec, factor: Scalar | None = None) -> Vec:
    if factor is None:
        for k, c in vec.items():
            prev = acc.get(k)
            s = c if prev is None else prev + c
            if s.is_zero():
                acc.pop(k, None)
            else:
                acc[k] = s
        return acc
    for k, c in vec.items():
        c = factor * c
        prev = acc.get(k)
        s = c if prev is None else prev + c
        if s.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def bilinear(rows, u: Vec, v: Vec) -> Vec:
    """The bilinear extension sum u_i v_j rows[i][j] of a table of values on
    basis pairs (a product, braiding or commutator table)."""
    out: Vec = {}
    for i, cu in u.items():
        row = rows[i]
        for j, cv in v.items():
            vadd_into(out, row[j], cu * cv)
    return out


def add_term(acc: Vec, key, c: Scalar) -> None:
    """acc[key] += c, dropping the entry when the sum is an exact zero."""
    prev = acc.get(key)
    if prev is not None:
        c = prev + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


def vsum(terms) -> Vec:
    """Sum (key, Scalar) terms into a sparse vector.  Exact zeros are kept, so
    compare the result with :func:`vec_equal`."""
    acc: Vec = {}
    for k, c in terms:
        prev = acc.get(k)
        acc[k] = c if prev is None else prev + c
    return acc


def vsub(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, c in b.items():
        prev = out.get(k)
        s = -c if prev is None else prev - c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_equal(a: Vec, b: Vec) -> bool:
    """Exact equality of sparse vectors; an entry equal to zero counts as absent.
    The coefficients are Scalars or ints, tested for zero by truth value."""
    if a == b:
        return True
    for k, c in a.items():
        d = b.get(k)
        if d is None:
            if c:
                return False
        elif c - d:
            return False
    for k, d in b.items():
        if k not in a and d:
            return False
    return True


def lower(table):
    """A structure table (nested tuples or lists of Scalars and of sparse
    vectors of Scalars) as nested tuples with every coefficient a Python int,
    or None when some coefficient is not a rational integer; the scan stops
    at the first such coefficient."""
    if type(table) is Scalar:
        return table.num[0] if table.conductor == 1 and table.den == 1 else None
    if type(table) is dict:
        out = {}
        for k, c in table.items():
            if c.conductor != 1 or c.den != 1:
                return None
            out[k] = c.num[0]
        return out
    out = []
    for entry in table:
        entry = lower(entry)
        if entry is None:
            return None
        out.append(entry)
    return tuple(out)


def as_scalar(c) -> Scalar:
    """A coefficient of a lowered table back as a Scalar."""
    return c if type(c) is Scalar else Scalar(1, (c,), 1)


def tensor(a: Vec, b: Vec) -> Vec:
    out: Vec = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            c = ca * cb
            if not c.is_zero():
                out[ka + kb] = c
    return out


def lift(vec: Vec) -> Vec:
    """Wrap an atom-keyed dict as a 1-slot tensor."""
    return {(k,): c for k, c in vec.items()}


def slot_apply(vec: Vec, i: int, fn) -> Vec:
    """Replace slot i through an atom -> Vec[atom] linear map."""
    out: Vec = {}
    for key, c in vec.items():
        for atom, s in fn(key[i]).items():
            add_term(out, key[:i] + (atom,) + key[i + 1:], c * s)
    return out


def slot_pair(vec: Vec, i: int, fn) -> Vec:
    """Replace slots (i, i+1) through an (atom, atom) -> Vec[(atom, atom)] map."""
    out: Vec = {}
    for key, c in vec.items():
        for (x, y), s in fn(key[i], key[i + 1]).items():
            add_term(out, key[:i] + (x, y) + key[i + 2:], c * s)
    return out


def slot_merge(vec: Vec, i: int, fn) -> Vec:
    """Merge slots (i, i+1) through an (atom, atom) -> Vec[atom] map."""
    out: Vec = {}
    for key, c in vec.items():
        for atom, s in fn(key[i], key[i + 1]).items():
            add_term(out, key[:i] + (atom,) + key[i + 2:], c * s)
    return out


def slot_split(vec: Vec, i: int, fn) -> Vec:
    """Split slot i through an atom -> Vec[(atom, atom)] map."""
    out: Vec = {}
    for key, c in vec.items():
        for (x, y), s in fn(key[i]).items():
            add_term(out, key[:i] + (x, y) + key[i + 1:], c * s)
    return out


def slot_scalar(vec: Vec, i: int, fn) -> Vec:
    """Contract slot i through an atom -> Scalar functional."""
    out: Vec = {}
    for key, c in vec.items():
        s = fn(key[i])
        if not s.is_zero():
            add_term(out, key[:i] + key[i + 1:], c * s)
    return out


# ---------------------------------------------------------------------------
# braided-algebra combinators (generic over the pair interface)
# ---------------------------------------------------------------------------

def mul_at(ops, vec: Vec, i: int) -> Vec:
    return slot_merge(vec, i, ops.mul_pair)


def braid_at(ops, vec: Vec, i: int) -> Vec:
    return slot_pair(vec, i, ops.braid_pair)


def opposite_mul_at(ops, vec: Vec, i: int) -> Vec:
    return mul_at(ops, braid_at(ops, vec, i), i)


def commutator(ops, a: Vec, b: Vec) -> Vec:
    """Braided commutator of two 1-slot tensors: mul(id - braid)(a x b)."""
    w = tensor(a, b)
    return mul_at(ops, vsub(w, braid_at(ops, w, 0)), 0)


def square_braiding(ops, w: Vec) -> Vec:
    """The braiding of the tensor-square algebra on a 4-slot tensor."""
    w = braid_at(ops, w, 1)
    w = braid_at(ops, w, 2)
    w = braid_at(ops, w, 0)
    return braid_at(ops, w, 1)


def square_product(ops, w: Vec) -> Vec:
    """Product of the tensor-square algebra on a 4-slot tensor."""
    w = braid_at(ops, w, 1)
    w = mul_at(ops, w, 0)
    return mul_at(ops, w, 1)


def square_commutator(ops, x2: Vec, y2: Vec) -> Vec:
    """Braided commutator of the tensor-square algebra on two 2-slot tensors."""
    w = tensor(x2, y2)
    return square_product(ops, vsub(w, square_braiding(ops, w)))


def square_commutator_expansion_sides(ops, a: Vec, b: Vec, c: Vec, d: Vec,
                                      drop_opposite_term: bool = False) -> tuple[Vec, Vec]:
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


def check_square_commutator_expansion(ops, a: Vec, b: Vec, c: Vec, d: Vec) -> bool:
    """Verify the tensor-square commutator expansion on one quadruple."""
    lhs, rhs = square_commutator_expansion_sides(ops, a, b, c, d)
    return vec_equal(lhs, rhs)
