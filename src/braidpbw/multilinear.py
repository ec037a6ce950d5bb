"""Sparse vectors, and the slot operations on tensor powers.

The engine's one sparse vector type is a dict mapping keys to nonzero
Scalars; the helpers before ``lift`` add, compare and compile such vectors.

Elements of a k-fold tensor power are dicts mapping length-k tuples of
"atoms" to nonzero scalars.  An atom is whatever indexes a basis of the
underlying space: an integer for structure-constant algebras, a word
tuple for the free algebra of the tests.  The slot operations below are
generic over any object exposing the pair interface

    mul_pair(a, b)   -> dict[atom, Scalar]          (product of basis atoms)
    braid_pair(a, b) -> dict[(atom, atom), Scalar]  (braiding on basis atoms)

No engine stage calls them: every stage composes structure rows (``mult``,
``comult``, ``antipode`` and the braiding's row table) directly, and the
tests keep slot-by-slot evaluation as an oracle.  They stay in the package
only because the benchmark's tracer (``perfbench/tracing.py``) counts calls
to ``slot_*``, ``mul_at`` and ``braid_at`` by these names and fails when one
is missing.
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


def integral(table) -> bool:
    """True when every coefficient of a structure table (a Scalar, a sparse
    vector, or tuples and lists of them) is a rational integer."""
    if type(table) is dict:
        for c in table.values():
            if c.conductor != 1 or c.den != 1:
                return False
        return True
    if type(table) is Scalar:
        return table.conductor == 1 and table.den == 1
    for entry in table:
        if not integral(entry):
            return False
    return True


def compile_table(table, ints: bool):
    """A structure table as nested tuples with each sparse vector a tuple of
    terms: (k, c) for an atom key k and (a, b, c) for a pair key (a, b).  Each
    coefficient c is a Python int when ints is set, else the Scalar itself."""
    if type(table) is dict:
        if ints:
            return tuple([(*k, c.num[0]) if type(k) is tuple else (k, c.num[0])
                          for k, c in table.items()])
        return tuple([(*k, c) if type(k) is tuple else (k, c) for k, c in table.items()])
    if type(table) is Scalar:
        return table.num[0] if ints else table
    return tuple([compile_table(entry, ints) for entry in table])


def as_scalar(c) -> Scalar:
    """A coefficient of a compiled table back as a Scalar."""
    return c if type(c) is Scalar else Scalar(1, (c,), 1)


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
