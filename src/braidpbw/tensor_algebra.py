"""The free braided algebra on a braided vector space.

Words are tuples of generator indices; elements are sparse dicts mapping
words to scalars.  The braiding lifts to blocks of letters through the
ladder composition of adjacent transposition braidings, and the braided
commutator is taken degreewise on bihomogeneous components.

A hard degree cap (env var BRAIDPBW_DEGREE_CAP, default 8) guards the
exponential growth of the free algebra; exceeding it raises rather than
silently truncating.
"""
from __future__ import annotations

import os

from .braided_space import GenericBraiding
from .multilinear import vadd_into, vsub
from .reporting import DegreeCapExceeded, InputError
from .scalars import ONE

Word = tuple[int, ...]
Element = dict  # Word -> Scalar

DEFAULT_DEGREE_CAP = 8


def degree_cap_default() -> int:
    """BRAIDPBW_DEGREE_CAP as a non-negative integer, DEFAULT_DEGREE_CAP when unset."""
    value = os.environ.get("BRAIDPBW_DEGREE_CAP")
    if not value:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise InputError(f"BRAIDPBW_DEGREE_CAP must be an integer >= 0, got {value!r}")
    return cap


def require_degree(n: int) -> None:
    """A requested top degree is a count of degrees: negative is malformed."""
    if n < 0:
        raise InputError(f"degree must be >= 0, got {n}")


class TensorAlgebra:
    """Free braided algebra T(V) for a given braiding on the generators."""

    def __init__(self, braiding: GenericBraiding, names: list[str] | None = None,
                 degree_cap: int | None = None):
        self.braiding = braiding
        self.dim = braiding.dim
        self.names = list(names) if names else [f"x{i}" for i in range(self.dim)]
        if len(self.names) != self.dim:
            raise ValueError("generator names do not match braiding dimension")
        self.degree_cap = degree_cap if degree_cap is not None else degree_cap_default()

    # -- pair interface (shared with the structure-constant algebras) -------

    def unit_vec(self) -> Element:
        return {(): ONE}

    def mul_pair(self, u: Word, v: Word) -> Element:
        if len(u) + len(v) > self.degree_cap:
            raise DegreeCapExceeded(
                f"word of length {len(u) + len(v)} exceeds degree cap {self.degree_cap}")
        return {u + v: ONE}

    def braid_pair(self, u: Word, v: Word) -> dict:
        """Block-exchange braiding on a pair of words."""
        if not u or not v:
            return {(v, u): ONE}
        moved = self.block_braiding(len(u), len(v), {u + v: ONE})
        out = {}
        m = len(v)
        for w, c in moved.items():
            out[(w[:m], w[m:])] = c
        return out

    # -- word-level operations ----------------------------------------------

    def apply_ci(self, elem: Element, i: int) -> Element:
        """Apply the braiding at letter slots (i, i+1), 1-indexed."""
        out: Element = {}
        for w, c in elem.items():
            n = len(w)
            if not 1 <= i <= n - 1:
                raise ValueError(f"position {i} out of range for a degree-{n} word")
            a, b = w[i - 1], w[i]
            for (k, l), s in self.braiding.rows[a][b].items():
                vadd_into(out, {w[: i - 1] + (k, l) + w[i + 1:]: c * s})
        return out

    def block_braiding(self, n: int, m: int, elem: Element) -> Element:
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

    def multiply(self, a: Element, b: Element) -> Element:
        out: Element = {}
        for u, cu in a.items():
            for v, cv in b.items():
                if len(u) + len(v) > self.degree_cap:
                    raise DegreeCapExceeded(
                        f"product degree {len(u) + len(v)} exceeds cap {self.degree_cap}")
                vadd_into(out, {u + v: cu * cv})
        return out

    def homogeneous_components(self, elem: Element) -> dict[int, Element]:
        comps: dict[int, Element] = {}
        for w, c in elem.items():
            comps.setdefault(len(w), {})[w] = c
        return comps

    def commutator(self, a: Element, b: Element) -> Element:
        """Braided commutator, summed over bihomogeneous components."""
        out: Element = {}
        for n, an in self.homogeneous_components(a).items():
            for m, bm in self.homogeneous_components(b).items():
                prod = self.multiply(an, bm)
                crossed: Element = {}
                for u, cu in an.items():
                    for v, cv in bm.items():
                        for (vv, uu), s in self.braid_pair(u, v).items():
                            vadd_into(crossed, {vv + uu: cu * cv * s})
                vadd_into(out, vsub(prod, crossed))
        return out

    def render(self, elem: Element) -> str:
        if not elem:
            return "0"
        parts = []
        for w in sorted(elem, key=lambda w: (len(w), w)):
            c = elem[w]
            word = "*".join(self.names[i] for i in w) if w else "1"
            if c.is_one():
                parts.append(word)
            else:
                parts.append(f"({c})*{word}")
        return " + ".join(parts)
