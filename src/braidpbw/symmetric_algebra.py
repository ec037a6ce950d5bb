"""Braided symmetric algebras S(V, c): the quotient of the free algebra by
the ideal generated by the image of (id - c) on degree two.

:func:`normal_forms` builds the quotient degree by degree for any braiding,
as its standard monomials and the normal forms of a standard monomial times
one letter; folding a word's letters through them straightens the word.
The corpus constructor (``corpus.symmetric_bialgebra``), the ``nf`` and
``hilbert`` commands and the PBW verdict's canonical map read it; the
``commutator`` command stays in the free algebra and reads only the rows of
the braiding.
"""
from __future__ import annotations

from itertools import groupby

from .braided_space import GenericBraiding, is_symmetric
from .linalg import echelon
from .multilinear import Vec, vadd_into
from .reporting import InputError, require_degree
from .scalars import ONE

Word = tuple[int, ...]


def require_symmetric(c: GenericBraiding) -> None:
    """The braided symmetric algebra S(V, c) is formed for a symmetric c only."""
    if not is_symmetric(c):
        raise InputError("braiding is not symmetric: c c is not the identity on V (x) V")


def normal_forms(c: GenericBraiding, top: int) -> tuple[list[list[Word]], dict[Word, Vec]]:
    """The quotient of the free algebra by (im(id - c)) through degree top.

    Returns (standard, table): standard[n] lists the standard monomials of
    degree n in ascending order, and table maps every word u + (j,), u
    standard of degree below top, to its normal form over them.

    A_n is A_{n-1} (x) V modulo the relations u x_i x_j - u c(x_i x_j), u
    standard of degree n - 2, written over the columns u + (j,) through the
    normal forms of degree n - 1.  Columns are eliminated in descending
    lexicographic order, so that non-decreasing words survive whenever the
    relations allow it; a pivot column's normal form is read off its
    reduced row.
    """
    require_degree(top)
    d = c.dim
    standard: list[list[Word]] = [[()]]
    table: dict[Word, Vec] = {}
    for n in range(1, top + 1):
        cols = sorted((u + (j,) for u in standard[n - 1] for j in range(d)), reverse=True)
        index = {w: t for t, w in enumerate(cols)}

        def image(u, i, j):  # u x_i x_j in A_{n-1} (x) V
            return {index[v + (j,)]: a for v, a in table[u + (i,)].items()}

        rows = []
        for u in (standard[n - 2] if n > 1 else ()):
            for i in range(d):
                for j, cij in enumerate(c.rows[i]):
                    row = image(u, i, j)
                    for (k, l), s in cij.items():
                        vadd_into(row, image(u, k, l), -s)
                    rows.append(row)
        red, pivots = echelon(rows)
        for p, row in zip(pivots, red):
            table[cols[p]] = {cols[t]: -a for t, a in row.items() if t != p}
        pivset = set(pivots)
        standard.append(sorted(w for t, w in enumerate(cols) if t not in pivset))
        for w in standard[n]:
            table[w] = {w: ONE}
    return standard, table


def normal_form(table: dict[Word, Vec], word) -> Vec:
    """The normal form of a word, its letters folded in one at a time through
    a :func:`normal_forms` table that reaches the word's length."""
    out: Vec = {(): ONE}
    for j in word:
        nxt: Vec = {}
        for u, a in out.items():
            vadd_into(nxt, table[u + (j,)], a)
        out = nxt
    return out


def monomial_str(names, w: Word) -> str:
    """A word in the generators named by ``names``, with runs of one letter
    as powers: (0, 0, 1) over ("x", "y") is "x^2*y", the empty word "1"."""
    runs = ((names[i], len(list(run))) for i, run in groupby(w))
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in runs) or "1"
