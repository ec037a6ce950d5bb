"""Exact linear algebra over cyclotomic scalars.

Canonical reduced row echelon forms are the backbone of every subspace
computation: pivots ascend, pivot entries are 1 and are the only nonzero
entries in their columns, zero rows are dropped.  Two subspaces are equal
iff their canonical forms agree entry by entry.

Every change of basis goes through one :class:`Coordinates` object: built
from independent sparse vectors, it expresses a sparse vector, or a
2-tensor leg by leg, over them, and raises :class:`SpanError` for a vector
outside their span.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .scalars import ONE, ZERO, Scalar

Row = list[Scalar]
SparseVec = dict[int, Scalar]


class SpanError(ValueError):
    """A vector lies outside the span of a coordinate basis."""


def zero_row(n: int) -> Row:
    return [ZERO] * n


def identity_rows(n: int) -> list[Row]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dense_of(vec: dict[int, Scalar], n: int) -> Row:
    row = zero_row(n)
    for i, c in vec.items():
        row[i] = c
    return row


def sparse_of(row: Sequence[Scalar]) -> dict[int, Scalar]:
    return {i: c for i, c in enumerate(row) if not c.is_zero()}


def rref(rows: Iterable[Sequence[Scalar]]) -> tuple[list[Row], list[int]]:
    """Canonical reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        prow = None
        for i in range(r, len(mat)):
            if not mat[i][col].is_zero():
                prow = i
                break
        if prow is None:
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [c * inv for c in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: Iterable[Sequence[Scalar]]) -> int:
    return len(rref(rows)[0])


def transpose(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[Row]:
    return [[row[c] for row in rows] for c in range(ncols)]


def matrix_kernel(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[Row]:
    """Basis of {x : row . x = 0 for every row}, one vector per free column."""
    red, pivots = rref(rows)
    pivset = set(pivots)
    out: list[Row] = []
    for f in range(ncols):
        if f in pivset:
            continue
        vec = zero_row(ncols)
        vec[f] = ONE
        for j, p in enumerate(pivots):
            c = red[j][f]
            if not c.is_zero():
                vec[p] = -c
        out.append(vec)
    return out


def left_nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[Row]:
    """Basis of {v : sum_i v_i rows[i] = 0}."""
    return matrix_kernel(transpose(rows, ncols), len(rows))


def invert_matrix(rows: Sequence[Sequence[Scalar]]) -> list[Row]:
    n = len(rows)
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in red]


def kron_rows(rows_a: Sequence[Sequence[Scalar]], rows_b: Sequence[Sequence[Scalar]]) -> list[Row]:
    out: list[Row] = []
    for u in rows_a:
        for w in rows_b:
            row: Row = []
            for x in u:
                if x.is_zero():
                    row.extend([ZERO] * len(w))
                else:
                    row.extend([x * y for y in w])
            out.append(row)
    return out


@dataclass(frozen=True, eq=False)
class Subspace:
    """Row space with a canonical RREF basis matrix."""

    ambient_dim: int
    rows: tuple[tuple[Scalar, ...], ...]
    pivots: tuple[int, ...]
    ambient: object = field(default=None, compare=False)

    __hash__ = None

    @staticmethod
    def span(ambient_dim: int, rows: Iterable[Sequence[Scalar]], ambient: object = None) -> "Subspace":
        red, piv = rref(rows)
        return Subspace(ambient_dim, tuple(tuple(r) for r in red), tuple(piv), ambient)

    @staticmethod
    def zero(ambient_dim: int, ambient: object = None) -> "Subspace":
        return Subspace(ambient_dim, (), (), ambient)

    @staticmethod
    def full(ambient_dim: int, ambient: object = None) -> "Subspace":
        return Subspace.span(ambient_dim, identity_rows(ambient_dim), ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Sequence[Scalar]) -> Row:
        """Residual of a vector after eliminating all pivot coordinates."""
        v = list(vector)
        for j, p in enumerate(self.pivots):
            c = v[p]
            if not c.is_zero():
                row = self.rows[j]
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def contains_vector(self, vector: Sequence[Scalar]) -> bool:
        return all(c.is_zero() for c in self.reduce(vector))

    @cached_property
    def sparse_rows(self) -> list[SparseVec]:
        return [sparse_of(r) for r in self.rows]

    def coords(self, vector: SparseVec) -> SparseVec | None:
        """Nonzero coefficients of a sparse vector over the RREF rows, or None
        if the vector is outside."""
        v = dict(vector)
        out: SparseVec = {}
        for j, p in enumerate(self.pivots):
            c = v.get(p)
            if c is None or c.is_zero():
                continue
            out[j] = c
            for i, b in self.sparse_rows[j].items():
                s = v.get(i, ZERO) - c * b
                if s.is_zero():
                    v.pop(i, None)
                else:
                    v[i] = s
        if any(not c.is_zero() for c in v.values()):
            return None
        return out

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.ambient_dim, list(self.rows) + list(other.rows), self.ambient)

    def functionals(self) -> list[Row]:
        """Rows f with f . v = 0 exactly for v in this subspace (one per free column)."""
        pivset = set(self.pivots)
        out: list[Row] = []
        for c in range(self.ambient_dim):
            if c in pivset:
                continue
            f = zero_row(self.ambient_dim)
            f[c] = ONE
            for j, p in enumerate(self.pivots):
                val = self.rows[j][c]
                if not val.is_zero():
                    f[p] = -val
            out.append(f)
        return out

    def coordinate_columns(self) -> set[int] | None:
        """Pivot set when every basis row is a standard basis vector, else None."""
        cols: set[int] = set()
        for j, p in enumerate(self.pivots):
            row = self.rows[j]
            for c, val in enumerate(row):
                if c != p and not val.is_zero():
                    return None
            cols.add(p)
        return cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.pivots != other.pivots:
            return False
        return all(
            all((a - b).is_zero() for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class Coordinates:
    """Coordinates over a list of linearly independent sparse vectors.

    The basis is reduced once, with the change of basis from its canonical
    RREF rows back to the given vectors; a vector is then eliminated
    against the RREF rows and its coefficients carried back.
    """

    def __init__(self, ambient_dim: int, vectors: Sequence[SparseVec]):
        self.vectors = list(vectors)
        n = len(self.vectors)
        augmented = [dense_of(v, ambient_dim) + [ONE if i == j else ZERO for j in range(n)]
                     for i, v in enumerate(self.vectors)]
        red, pivots = rref(augmented)
        if pivots and pivots[-1] >= ambient_dim:
            raise SpanError("coordinate basis vectors are linearly dependent")
        self.span = Subspace(ambient_dim, tuple(tuple(r[:ambient_dim]) for r in red),
                             tuple(pivots))
        self._back = [sparse_of(r[ambient_dim:]) for r in red]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coords(self, vec: SparseVec) -> SparseVec:
        """Coefficients of a sparse vector over the basis; SpanError if it is
        outside the span."""
        over_rref = self.span.coords(vec)
        if over_rref is None:
            raise SpanError("vector is outside the span of the coordinate basis")
        out: SparseVec = {}
        for j, c in over_rref.items():
            for r, t in self._back[j].items():
                s = out.get(r, ZERO) + c * t
                if s.is_zero():
                    out.pop(r, None)
                else:
                    out[r] = s
        return out

    def coords_pair(self, w: dict) -> dict:
        """Coefficients of a sparse 2-tensor over pairs of basis vectors,
        computed leg by leg."""
        by_right: dict[int, SparseVec] = {}
        for (i, j), c in w.items():
            by_right.setdefault(j, {})[i] = c
        by_left: dict[int, SparseVec] = {}
        for j, leg in by_right.items():
            for a, c in self.coords(leg).items():
                by_left.setdefault(a, {})[j] = c
        return {(a, b): c for a, leg in by_left.items() for b, c in self.coords(leg).items()}
