"""Braided symmetric algebras S(V, c): the quotient of the free algebra by
the ideal generated by the image of (id - c) on degree two.

:func:`normal_forms` builds the quotient degree by degree for any braiding,
as its standard monomials and the normal forms of a standard monomial times
one letter; folding a word's letters through them straightens the word.
:func:`tensor_ideal_complement` eliminates over all words of one degree at
once, for weighted generators; it is the independent rank oracle.
"""
from __future__ import annotations

from itertools import groupby

from .braided_space import GenericBraiding, is_symmetric
from .linalg import echelon
from .multilinear import Vec, vadd_into
from .reporting import DegreeCapExceeded, InputError
from .scalars import ONE
from .tensor_algebra import degree_cap_default, require_degree

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
    lexicographic order, as in :func:`tensor_ideal_complement`, so both find
    the same standard monomials; a pivot column's normal form is read off
    its reduced row.
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


def weighted_words(dim: int, weights: list[int], degree: int) -> list[Word]:
    """All words over dim letters whose weights sum to the given degree."""
    if any(w < 1 for w in weights):
        raise ValueError("generator weights must be >= 1")
    result: list[Word] = []

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
    generated by the image of (id - c) on degree two.

    Returns (words, pivot column indices, complement words); the complement
    words are the canonical standard monomials surviving in the quotient.
    Columns are eliminated in descending lexicographic order so that
    non-decreasing words survive whenever the relations allow it.
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
    """Dimension of the degree-n slice of the quotient algebra, by exact rank.

    Works for any braiding; this is the independent check against the
    standard monomials of :func:`normal_forms`.
    """
    cap = degree_cap_default()
    if n > cap:
        raise DegreeCapExceeded(f"degree {n} exceeds cap {cap}")
    return len(tensor_ideal_complement(braiding, [1] * braiding.dim, n)[2])
