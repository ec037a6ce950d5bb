"""Braided symmetric algebras for diagonal symmetric braidings.

The symmetric algebra is the quotient of the free algebra by the ideal
generated by the image of (id - c) on degree two.  For a skew-symmetric
bicharacter the quotient has the classical monomial basis: non-decreasing
index words, strictly increasing at any generator whose self-pairing is
not 1.  The rewriting engine realises that basis by straightening; a
linear-algebra oracle computes quotient dimensions for arbitrary
braidings, independently of the combinatorics.
"""
from __future__ import annotations

from itertools import groupby

from .braided_space import Bicharacter, GenericBraiding, GradedBasis
from .linalg import echelon
from .multilinear import vadd_into
from .reporting import DegreeCapExceeded, InputError
from .scalars import ONE, Scalar
from .tensor_algebra import degree_cap_default, require_degree

Word = tuple[int, ...]
SymElement = dict  # straightened Word -> Scalar


class SymmetricAlgebra:
    """Quotient of the free algebra for a diagonal symmetric braiding."""

    def __init__(self, names: list[str], q: list[list[Scalar]]):
        d = len(names)
        if len(q) != d or any(len(row) != d for row in q):
            raise ValueError("coefficient matrix does not match generator count")
        for i in range(d):
            for j in range(d):
                if not (q[i][j] * q[j][i]).is_one():
                    raise InputError(
                        "braiding is not symmetric (skew-symmetry fails at "
                        f"({names[i]}, {names[j]})); use the linear-algebra "
                        "dimension oracle for general braidings")
        self.names = list(names)
        self.q = q
        self.nilpotent = [not q[i][i].is_one() for i in range(d)]
        self.dim = d

    @classmethod
    def from_bicharacter(cls, chi: Bicharacter, basis: GradedBasis) -> "SymmetricAlgebra":
        d = basis.dim
        q = [[chi.value(basis.degrees[i], basis.degrees[j]) for j in range(d)] for i in range(d)]
        return cls(list(basis.names), q)

    def braiding(self) -> GenericBraiding:
        return GenericBraiding.diagonal(self.q)

    # -- rewriting ------------------------------------------------------------

    def _violation(self, w: Word, strategy: str) -> int | None:
        positions = range(len(w) - 1)
        if strategy == "rightmost":
            positions = reversed(positions)
        for p in positions:
            if w[p] > w[p + 1]:
                return p
            if w[p] == w[p + 1] and self.nilpotent[w[p]]:
                return p
        return None

    def normal_form(self, word, strategy: str = "leftmost") -> SymElement:
        """Straighten a word: swap descents with the braiding coefficient,
        kill squares of nilpotent generators.  The strategy picks which
        violation is rewritten first; confluence is asserted by test."""
        out: SymElement = {}
        stack: list[tuple[Word, Scalar]] = [(tuple(word), ONE)]
        while stack:
            w, coef = stack.pop()
            p = self._violation(w, strategy)
            if p is None:
                vadd_into(out, {w: coef})
                continue
            i, j = w[p], w[p + 1]
            if i == j:
                continue  # nilpotent square rewrites to zero
            stack.append((w[:p] + (j, i) + w[p + 2:], coef * self.q[i][j]))
        return out

    def product(self, a: SymElement, b: SymElement) -> SymElement:
        out: SymElement = {}
        for u, cu in a.items():
            for v, cv in b.items():
                vadd_into(out, self.normal_form(u + v), cu * cv)
        return out

    # -- bases and dimensions --------------------------------------------------

    def basis_in_degree(self, n: int) -> list[Word]:
        """All straightened monomials of length n, in lexicographic order."""
        result: list[Word] = []

        def rec(prefix: list[int], start: int, remaining: int) -> None:
            if remaining == 0:
                result.append(tuple(prefix))
                return
            for i in range(start, self.dim):
                prefix.append(i)
                rec(prefix, i + (1 if self.nilpotent[i] else 0), remaining - 1)
                prefix.pop()

        rec([], 0, n)
        return result

    def hilbert_series(self, n_max: int) -> list[int]:
        require_degree(n_max)
        return [len(self.basis_in_degree(n)) for n in range(n_max + 1)]

    def oracle_dimension(self, n: int, cap: int | None = None) -> int:
        return oracle_dimension(self.braiding(), n, cap)

    def render(self, elem: SymElement) -> str:
        if not elem:
            return "0"
        parts = []
        for w in sorted(elem, key=lambda w: (len(w), w)):
            c = elem[w]
            mono = monomial_str(self.names, w)
            parts.append(mono if c.is_one() else f"({c})*{mono}")
        return " + ".join(parts)


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


def oracle_dimension(braiding: GenericBraiding, n: int, cap: int | None = None) -> int:
    """Dimension of the degree-n slice of the quotient algebra, by exact rank.

    Works for any braiding; this is the independent check against the
    monomial count of the straightened basis.
    """
    cap = cap if cap is not None else degree_cap_default()
    if n > cap:
        raise DegreeCapExceeded(f"degree {n} exceeds cap {cap}")
    if n == 0:
        return 1
    _, pivots, complement = tensor_ideal_complement(braiding, [1] * braiding.dim, n)
    return len(complement)
