"""Exact linear algebra over cyclotomic scalars, on sparse vectors.

A vector is a sparse :data:`Vec`: a dict from ordered keys to nonzero
scalars.  One elimination, :func:`echelon`, brings sparse rows to their
canonical reduced row echelon form: pivots ascend, pivot entries are 1 and
are the only nonzero entries in their columns, zero rows are dropped.  Two
subspaces are equal iff their canonical forms agree entry by entry.  The
one kernel routine, :func:`kernel`, eliminates the images of the basis
vectors together with the identity and keeps the rows whose image part
vanished.  :func:`rref` is the adapter for callers holding a dense matrix.

One triangular elimination, :func:`solve`, expresses a sparse vector over
rows in echelon form, each with its own least key (:func:`lead_table`):
a :class:`Subspace` solves over its RREF rows, a :class:`Coordinates`
over its vectors, which must be in echelon form.  Every change of basis
goes through one Coordinates object, which alone decides whether its
basis is the standard one: there coordinates are the entries, and the
value of a structure table at a basis vector is the table's row; elsewhere
the table is extended linearly and the result solved for.  It raises
:class:`SpanError` for a vector outside the span.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .multilinear import Vec, bilinear, linear, vadd_into, vec_equal
from .reporting import SpanError
from .scalars import ONE, ZERO, Scalar

Row = list[Scalar]


def echelon(rows: Iterable[Vec]) -> tuple[list[Vec], list]:
    """Canonical RREF of sparse rows: the nonzero rows in ascending pivot
    order, each with ascending keys, and their pivots (least keys)."""
    table: dict = {}  # pivot -> row, 1 at its pivot and 0 at every other pivot
    for row in rows:
        v = {k: c for k, c in row.items() if not c.is_zero()}
        for p in [k for k in v if k in table]:
            vadd_into(v, table[p], -v[p])
        if not v:
            continue
        p = min(v)
        if not v[p].is_one():
            inv = v[p].inverse()
            v = {k: c * inv for k, c in v.items()}
        for u in table.values():
            c = u.get(p)
            if c is not None:
                vadd_into(u, v, -c)
        table[p] = v
    pivots = sorted(table)
    return [{k: table[p][k] for k in sorted(table[p])} for p in pivots], pivots


def rref(rows: Iterable[Sequence[Scalar]]) -> tuple[list[Row], list[int]]:
    """Canonical reduced row echelon form of a dense matrix; returns (nonzero
    rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    red, pivots = echelon({i: c for i, c in enumerate(r) if not c.is_zero()} for r in mat)
    return [[r.get(i, ZERO) for i in range(ncols)] for r in red], pivots


def rank(rows: Iterable[Sequence[Scalar]]) -> int:
    return len(rref(rows)[0])


def lead_table(rows: Sequence[Vec]) -> dict:
    """Rows in echelon form, each with its own least key (its lead), as
    {lead: (position, the row's tail past its lead, inverse of the lead
    coefficient or None when it is 1, the leads in that tail)}; SpanError
    for a zero row or a repeated lead."""
    rows = [{k: c for k, c in row.items() if not c.is_zero()} for row in rows]
    leads = [min(row, default=None) for row in rows]
    if None in leads or len(set(leads)) < len(rows):
        raise SpanError("vectors not in echelon form: a zero vector or a repeated lead")
    at = set(leads)
    return {p: (j, {k: c for k, c in row.items() if k != p},
                None if row[p].is_one() else row[p].inverse(),
                tuple(k for k in row if k != p and k in at))
            for j, (p, row) in enumerate(zip(leads, rows))}


def solve(leads: dict, vector: Vec) -> tuple[Vec, Vec]:
    """(coefficients over the rows of a :func:`lead_table`, residual) of a
    sparse vector, by triangular elimination in ascending lead order.  A row
    changes keys at and after its lead only, so each lead is eliminated once,
    also one that an earlier row's tail brings in; the lead's own entry
    cancels exactly, so only the tail is subtracted.  The residual has no
    entry at any lead; it is empty exactly when the vector lies in the rows'
    span."""
    v = {k: c for k, c in vector.items() if not c.is_zero()}
    out: Vec = {}
    todo = [k for k in v if k in leads]
    heapify(todo)
    while todo:
        p = heappop(todo)
        c = v.pop(p, None)
        if c is not None:  # else cancelled, or already eliminated
            j, tail, inv, later = leads[p]
            out[j] = c = c if inv is None else c * inv
            if tail:
                vadd_into(v, tail, -c)
                for k in later:
                    heappush(todo, k)
    return out, v


@dataclass(frozen=True, eq=False)
class Subspace:
    """Row space with its canonical RREF basis as sparse rows."""

    ambient_dim: int
    rows: tuple[Vec, ...]
    pivots: tuple[int, ...]

    __hash__ = None

    @staticmethod
    def span(ambient_dim: int, rows: Iterable[Vec]) -> "Subspace":
        red, piv = echelon(rows)
        return Subspace(ambient_dim, tuple(red), tuple(piv))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def _leads(self) -> dict:
        return lead_table(self.rows)

    def reduce(self, vector: Vec) -> Vec:
        """Residual of a vector after eliminating all pivot coordinates."""
        return solve(self._leads, vector)[1]

    def contains_vector(self, vector: Vec) -> bool:
        return not solve(self._leads, vector)[1]

    def coords(self, vector: Vec) -> Vec | None:
        """Nonzero coefficients of a sparse vector over the RREF rows, or None
        if the vector is outside."""
        out, residual = solve(self._leads, vector)
        return None if residual else out

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def functionals(self) -> list[Vec]:
        """Functionals f with f . v = 0 exactly for v in this subspace (one
        per free column): e_c minus the column c of the rows at their pivots."""
        out: list[Vec] = []
        for c in range(self.ambient_dim):
            if c in self._leads:
                continue
            f = {p: -row[c] for p, row in zip(self.pivots, self.rows) if c in row}
            f[c] = ONE
            out.append({k: f[k] for k in sorted(f)})
        return out

    @cached_property
    def functionals_at(self) -> dict[int, list[tuple[int, Scalar]]]:
        """Column -> [(index in :meth:`functionals`, value there)], built once."""
        at: dict[int, list] = {}
        for t, f in enumerate(self.functionals()):
            for col, fv in f.items():
                at.setdefault(col, []).append((t, fv))
        return at

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.pivots != other.pivots:
            return False
        return all(vec_equal(a, b) for a, b in zip(self.rows, other.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel(images: Sequence[Vec]) -> Subspace:
    """Kernel of the linear map sending the i-th basis vector to images[i].

    The image keys may be any mutually ordered keys; they are relabelled
    to columns before the columns of the identity, so the rows of the
    augmented RREF whose pivot lies in the identity part have a zero image
    part and are the canonical basis of the kernel.
    """
    label: dict = {}
    for img in images:
        for key in img:
            label.setdefault(key, len(label))
    m = len(label)
    red, pivots = echelon({**{label[k]: c for k, c in img.items()}, m + i: ONE}
                          for i, img in enumerate(images))
    null = [(p - m, {k - m: c for k, c in r.items()}) for r, p in zip(red, pivots) if p >= m]
    return Subspace(len(images), tuple(r for _, r in null), tuple(p for p, _ in null))


class Coordinates:
    """Coordinates over linearly independent sparse vectors.

    On the standard basis (:attr:`standard`: vector r is e_r, also as a
    prefix of a larger space), coordinates are a vector's nonzero entries as
    they stand, and the value of a table at basis vector r is its row r.
    Other vectors are solved for by :func:`solve`.  The vectors must be in
    echelon form, each with its own least key, as every basis the engine
    builds is; any others raise :class:`SpanError` (:func:`lead_table`).
    """

    def __init__(self, vectors: Sequence[Vec]):
        self.vectors = list(vectors)
        self.standard = all(v == {r: ONE} for r, v in enumerate(self.vectors))
        self._leads = lead_table(self.vectors)

    def image(self, table, r: int):
        """The value at basis vector r of a map given by its values on the
        standard basis (a coproduct or antipode table)."""
        return table[r] if self.standard else linear(table, self.vectors[r])

    def image_pair(self, table, r: int, s: int):
        """The value at the pair (r, s) of basis vectors of a map given by its
        values on standard basis pairs (a product, braiding or commutator
        table)."""
        return table[r][s] if self.standard else bilinear(table, self.vectors[r], self.vectors[s])

    def coords(self, vec: Vec) -> Vec:
        """Coefficients of a sparse vector over the basis; SpanError if it is
        outside the span."""
        if self.standard:
            return self._entries(vec, False)
        out, residual = solve(self._leads, vec)
        if residual:
            raise SpanError("vector is outside the span of the coordinate basis")
        return out

    def coords_pair(self, w: dict) -> dict:
        """Coefficients of a sparse 2-tensor over pairs of basis vectors,
        computed leg by leg."""
        if self.standard:
            return self._entries(w, True)
        by_right: dict[int, Vec] = {}
        for (i, j), c in w.items():
            by_right.setdefault(j, {})[i] = c
        by_left: dict[int, Vec] = {}
        for j, leg in by_right.items():
            for a, c in self.coords(leg).items():
                by_left.setdefault(a, {})[j] = c
        return {(a, b): c for a, leg in by_left.items() for b, c in self.coords(leg).items()}

    def _entries(self, vec: dict, pair: bool) -> dict:
        """The nonzero entries of a vector, or of a 2-tensor when ``pair``, on
        the standard basis; SpanError when one is keyed past the basis."""
        out = {k: c for k, c in vec.items() if not c.is_zero()}
        if max(map(max, out) if pair else out, default=-1) >= len(self.vectors):
            raise SpanError("vector is outside the span of the coordinate basis")
        return out
