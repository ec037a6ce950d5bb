"""Exact linear algebra over cyclotomic scalars, on sparse vectors.

A vector is a sparse :data:`Vec`: a dict from ordered keys to nonzero
scalars.  One elimination, :func:`echelon`, brings sparse rows to their
canonical reduced row echelon form: pivots ascend, pivot entries are 1 and
are the only nonzero entries in their columns, zero rows are dropped.  Two
subspaces are equal iff their canonical forms agree entry by entry.  The
one kernel routine, :func:`kernel`, eliminates the images of the basis
vectors together with the identity and keeps the rows whose image part
vanished.  :func:`rref` is the adapter for callers holding a dense matrix.

Every change of basis goes through one :class:`Coordinates` object: built
from independent sparse vectors, it expresses a sparse vector, or a
2-tensor leg by leg, over them, and raises :class:`SpanError` for a vector
outside their span.  A monomial basis skips the elimination; on the
standard basis, coordinates are the entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .multilinear import Vec, vadd_into, vec_equal
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
    def _row_at(self) -> dict[int, int]:
        return {p: j for j, p in enumerate(self.pivots)}

    def _eliminate(self, vector: Vec) -> tuple[Vec, Vec]:
        """(coefficients over the rows, residual) of a sparse vector."""
        v = {k: c for k, c in vector.items() if not c.is_zero()}
        out: Vec = {}
        for p in sorted(k for k in v if k in self._row_at):
            j = self._row_at[p]
            c = v[p]
            out[j] = c
            vadd_into(v, self.rows[j], -c)
        return out, v

    def reduce(self, vector: Vec) -> Vec:
        """Residual of a vector after eliminating all pivot coordinates."""
        return self._eliminate(vector)[1]

    def contains_vector(self, vector: Vec) -> bool:
        return not self._eliminate(vector)[1]

    def coords(self, vector: Vec) -> Vec | None:
        """Nonzero coefficients of a sparse vector over the RREF rows, or None
        if the vector is outside."""
        out, residual = self._eliminate(vector)
        return None if residual else out

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def functionals(self) -> list[Vec]:
        """Functionals f with f . v = 0 exactly for v in this subspace (one
        per free column): e_c minus the column c of the rows at their pivots."""
        out: list[Vec] = []
        for c in range(self.ambient_dim):
            if c in self._row_at:
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
    """Coordinates over a list of linearly independent sparse vectors.

    On the standard basis, each vector r the unit vector e_r (also a prefix
    e_0..e_{m-1} of a larger space), coordinates are the entries: a vector's
    nonzero entries, as they stand (:attr:`standard`).  Another monomial
    basis, each vector a nonzero multiple of a distinct standard basis
    vector, needs no elimination: coordinates are a relabel and a scale.
    Any other basis is reduced once, with the change of basis from its
    canonical RREF rows back to the given vectors; a vector is then
    eliminated against the RREF rows and its coefficients carried back.
    Every way gives the same coefficients.
    """

    def __init__(self, ambient_dim: int, vectors: Sequence[Vec]):
        self.vectors = list(vectors)
        self._monomial = _monomial_positions(self.vectors)
        self.standard = all(v == {r: ONE} for r, v in enumerate(self.vectors))
        if self._monomial is not None:
            return
        n = ambient_dim
        red, pivots = echelon({**v, n + i: ONE} for i, v in enumerate(self.vectors))
        if pivots and pivots[-1] >= n:
            raise SpanError("coordinate basis vectors are linearly dependent")
        self.span = Subspace(n, tuple({k: c for k, c in r.items() if k < n} for r in red),
                             tuple(pivots))
        self._back = [{k - n: c for k, c in r.items() if k >= n} for r in red]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def coords(self, vec: Vec) -> Vec:
        """Coefficients of a sparse vector over the basis; SpanError if it is
        outside the span."""
        if self.standard:
            return self._entries(vec, False)
        monomial = self._monomial
        if monomial is not None:
            out: Vec = {}
            for k in sorted(vec):
                c = vec[k]
                if c.is_zero():
                    continue
                at = monomial.get(k)
                if at is None:
                    raise SpanError("vector is outside the span of the coordinate basis")
                out[at[0]] = c * at[1]
            return out
        over_rref = self.span.coords(vec)
        if over_rref is None:
            raise SpanError("vector is outside the span of the coordinate basis")
        out = {}
        for j, c in over_rref.items():
            vadd_into(out, self._back[j], c)
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


def _monomial_positions(vectors: Sequence[Vec]) -> dict | None:
    """{key: (position, inverse coefficient)} when each vector is a nonzero
    multiple of a distinct standard basis vector, else None."""
    out: dict = {}
    for r, v in enumerate(vectors):
        if len(v) != 1:
            return None
        (k, c), = v.items()
        if c.is_zero() or k in out:
            return None
        out[k] = (r, c.inverse())
    return out
