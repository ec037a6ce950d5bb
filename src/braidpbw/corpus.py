"""Built-in test corpus: small bialgebras with known behaviour.

Ships the group algebra of C2, the 4-dimensional Sweedler algebra, the
9-dimensional Taft algebra at a primitive cube root of unity, degree-6
truncations of the polynomial line, the polynomial plane, the enveloping
algebra of the 2-dimensional solvable Lie algebra, the super line, and an
anticommuting color plane.  Each pipeline entry records the expected
outcomes; everything here is re-derived by the engine's oracles in tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable, Mapping

from .braided_space import (
    Bicharacter,
    FiniteAbelianGroup,
    GenericBraiding,
    GradedBasis,
)
from .findim_hopf import StructureBialgebra
from .multilinear import Vec, vadd_into
from .scalars import MINUS_ONE, ONE, ZERO, Scalar, root_of_unity
from .symmetric_algebra import SymmetricAlgebra

DEFAULT_TRUNCATION = 6


def _mult_table(d: int, fn) -> tuple[tuple[Vec, ...], ...]:
    return tuple(tuple(fn(i, j) for j in range(d)) for i in range(d))


def _pair_product(mult, a: dict, b: dict) -> dict:
    """Componentwise product on 2-tensors for a trivially braided algebra."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            for k1, s1 in mult(i1, i2).items():
                for k2, s2 in mult(j1, j2).items():
                    vadd_into(out, {(k1, k2): c1 * c2 * s1 * s2})
    return out


def group_algebra_c2() -> StructureBialgebra:
    """Group algebra of the cyclic group of order 2; trivial braiding."""
    names = ("1", "g")

    def mult(i, j):
        return {(i + j) % 2: ONE}

    comult = ({(0, 0): ONE}, {(1, 1): ONE})
    return StructureBialgebra(
        names=names,
        unit={0: ONE},
        mult=_mult_table(2, mult),
        counit=(ONE, ONE),
        comult=comult,
        braiding=GenericBraiding.flip(2),
        antipode=({0: ONE}, {1: ONE}),
    )


def sweedler_h4() -> StructureBialgebra:
    """The 4-dimensional Sweedler algebra: g^2 = 1, x^2 = 0, xg = -gx."""
    names = ("1", "g", "x", "gx")
    # basis index <-> (g-exponent, x-exponent)
    enc = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    dec = {v: k for k, v in enc.items()}

    def mult(i, j):
        (a1, b1), (a2, b2) = dec[i], dec[j]
        if b1 + b2 > 1:
            return {}
        sign = MINUS_ONE if (b1 * a2) % 2 else ONE
        return {enc[((a1 + a2) % 2, b1 + b2)]: sign}

    comult = []
    for i in range(4):
        a, b = dec[i]
        if b == 0:
            comult.append({(i, i): ONE})
        else:
            comult.append({(enc[(a, 1)], enc[(a, 0)]): ONE,
                           (enc[((a + 1) % 2, 0)], enc[(a, 1)]): ONE})
    antipode = ({0: ONE}, {1: ONE}, {3: MINUS_ONE}, {2: ONE})
    return StructureBialgebra(
        names=names,
        unit={0: ONE},
        mult=_mult_table(4, mult),
        counit=(ONE, ONE, ZERO, ZERO),
        comult=tuple(comult),
        braiding=GenericBraiding.flip(4),
        antipode=antipode,
        grading=(0, 0, 1, 1),
    )


def taft3() -> StructureBialgebra:
    """The 9-dimensional Taft algebra at a primitive cube root of unity.

    Relations g^3 = 1, x^3 = 0, gx = zeta xg; the coproduct makes g
    group-like and x a (1, g)-skew primitive.  Trivial braiding.
    """
    zeta = root_of_unity(3)
    names = tuple(
        ("1", "g", "g^2")[a] if b == 0 else (f"{('', 'g*', 'g^2*')[a]}x" if b == 1 else f"{('', 'g*', 'g^2*')[a]}x^2")
        for b in range(3) for a in range(3)
    )
    enc = {(a, b): b * 3 + a for a in range(3) for b in range(3)}
    dec = {v: k for k, v in enc.items()}

    def mult(i, j):
        (a1, b1), (a2, b2) = dec[i], dec[j]
        if b1 + b2 > 2:
            return {}
        coeff = zeta ** ((-b1 * a2) % 3)
        return {enc[((a1 + a2) % 3, b1 + b2)]: coeff}

    # coproduct: Delta(g^a x^b) = (g^a (x) g^a) * (x (x) 1 + g (x) x)^b
    dx = {(enc[(0, 1)], enc[(0, 0)]): ONE, (enc[(1, 0)], enc[(0, 1)]): ONE}
    comult = []
    for i in range(9):
        a, b = dec[i]
        acc = {(enc[(a, 0)], enc[(a, 0)]): ONE}
        for _ in range(b):
            acc = _pair_product(mult, acc, dx)
        comult.append(acc)

    # antipode: S(g) = g^2, S(x) = -g^2 x, extended as an anti-homomorphism
    def vec_mult(u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, ci in u.items():
            for j, cj in v.items():
                vadd_into(out, mult(i, j), ci * cj)
        return out

    s_x = {enc[(2, 1)]: MINUS_ONE}
    antipode = []
    for i in range(9):
        a, b = dec[i]
        acc: Vec = {enc[(0, 0)]: ONE}
        for _ in range(b):
            acc = vec_mult(acc, s_x)
        acc = vec_mult(acc, {enc[((2 * a) % 3, 0)]: ONE})
        antipode.append(acc)

    return StructureBialgebra(
        names=names,
        unit={0: ONE},
        mult=_mult_table(9, mult),
        counit=tuple(ONE if dec[i][1] == 0 else ZERO for i in range(9)),
        comult=tuple(comult),
        braiding=GenericBraiding.flip(9),
        antipode=tuple(antipode),
        grading=tuple(dec[i][1] for i in range(9)),
    )


def primitively_generated(names: list[str], group: FiniteAbelianGroup,
                          table, degrees, truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """Braided symmetric algebra on primitive generators, truncated by degree.

    The generators carry group degrees; the diagonal braiding comes from the
    bicharacter; products straighten to the monomial basis and monomials of
    length beyond the truncation are dropped (the grading is strict, so the
    truncation is consistent).
    """
    chi = Bicharacter(group, table)
    basis = GradedBasis(tuple(names), tuple(degrees))
    sym = SymmetricAlgebra.from_bicharacter(chi, basis)

    monomials: list[tuple[int, ...]] = []
    for n in range(truncation + 1):
        monomials.extend(sym.basis_in_degree(n))
    index = {m: t for t, m in enumerate(monomials)}
    d = len(monomials)

    def group_degree(mono):
        g = group.identity()
        for i in mono:
            g = group.add(g, basis.degrees[i])
        return g

    def lam(u, v) -> Scalar:
        return chi.value(group_degree(u), group_degree(v))

    def mult(ti, tj):
        u, v = monomials[ti], monomials[tj]
        if len(u) + len(v) > truncation:
            return {}
        out: Vec = {}
        for w, c in sym.normal_form(u + v).items():
            vadd_into(out, {index[w]: c})
        return out

    braid_rows = [[{(tj, ti): lam(u, v)} for tj, v in enumerate(monomials)]
                  for ti, u in enumerate(monomials)]

    # coproduct: primitives, extended as a braided algebra morphism
    def pair_mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for (u1, v1), c1 in a.items():
            for (u2, v2), c2 in b.items():
                coeff = c1 * c2 * lam(v1, u2)
                left = sym.normal_form(u1 + u2)
                right = sym.normal_form(v1 + v2)
                for lw, lc in left.items():
                    for rw, rc in right.items():
                        vadd_into(out, {(lw, rw): coeff * lc * rc})
        return out

    comult = []
    for mono in monomials:
        acc = {((), ()): ONE}
        for i in mono:
            acc = pair_mul(acc, {((i,), ()): ONE, ((), (i,)): ONE})
        entry: dict = {}
        for (u, v), c in acc.items():
            entry[(index[u], index[v])] = c
        comult.append(entry)

    # antipode: S(x_i) = -x_i, extended through S(uv) = mul(braid(S u (x) S v))
    antipode_words: dict[tuple[int, ...], Vec] = {(): {(): ONE}}

    def spode(mono) -> dict:
        if mono in antipode_words:
            return antipode_words[mono]
        head, rest = mono[0], mono[1:]
        srest = spode(rest)
        out: dict = {}
        for w, c in srest.items():
            coeff = c * lam((head,), w) * MINUS_ONE
            for nw, nc in sym.normal_form(w + (head,)).items():
                vadd_into(out, {nw: coeff * nc})
        antipode_words[mono] = out
        return out

    antipode = []
    for mono in monomials:
        entry: Vec = {}
        for w, c in spode(mono).items():
            vadd_into(entry, {index[w]: c})
        antipode.append(entry)

    return StructureBialgebra(
        names=tuple(sym.monomial_str(m) for m in monomials),
        unit={0: ONE},
        mult=_mult_table(d, mult),
        counit=tuple(ONE if not m else ZERO for m in monomials),
        comult=tuple(comult),
        braiding=GenericBraiding(braid_rows),
        antipode=tuple(antipode),
        grading=tuple(len(m) for m in monomials),
        truncation=truncation,
    )


def poly_line(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """Polynomial algebra on one primitive generator, truncated."""
    g = FiniteAbelianGroup((2,))
    return primitively_generated(["x"], g, ((ONE,),), [(0,)], truncation)


def poly_plane(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """Polynomial algebra on two commuting primitives (abelian Lie algebra)."""
    g = FiniteAbelianGroup((2,))
    table = ((ONE,),)
    return primitively_generated(["x", "y"], g, table, [(0,), (0,)], truncation)


def super_line(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """One even and one odd primitive generator with the sign braiding."""
    g = FiniteAbelianGroup((2,))
    table = ((MINUS_ONE,),)
    return primitively_generated(["x", "th"], g, table, [(0,), (1,)], truncation)


def color_plane(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """Two anticommuting, non-nilpotent primitives graded by Z/2 x Z/2."""
    g = FiniteAbelianGroup((2, 2))
    table = ((ONE, MINUS_ONE), (MINUS_ONE, ONE))
    return primitively_generated(["x", "y"], g, table, [(1, 0), (0, 1)], truncation)


def solvable_pair(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """Enveloping algebra of the solvable Lie algebra with bracket [x, y] = y.

    Ordered monomials x^a y^b with a + b <= T; the stored degree is the
    monomial degree, which products respect only up to lower-order terms,
    so the degree serves as truncation bookkeeping rather than a grading.
    """
    monos = [(a, b) for n in range(truncation + 1) for a in range(n + 1) for b in (n - a,)]
    monos = sorted(monos, key=lambda ab: (ab[0] + ab[1], ab[0]))
    index = {m: t for t, m in enumerate(monos)}
    d = len(monos)

    def mult(ti, tj):
        (a, b), (c, e) = monos[ti], monos[tj]
        out: Vec = {}
        # y^b x^c = (x - b)^c y^b
        for k in range(c + 1):
            coeff = comb(c, k) * ((-b) ** (c - k))
            if coeff == 0:
                continue
            if a + k + b + e > truncation:
                continue
            vadd_into(out, {index[(a + k, b + e)]: Scalar.from_rational(coeff)})
        return out

    comult = []
    for a, b in monos:
        entry: dict = {}
        for i in range(a + 1):
            for j in range(b + 1):
                coeff = comb(a, i) * comb(b, j)
                entry[(index[(i, j)], index[(a - i, b - j)])] = Scalar.from_rational(coeff)
        comult.append(entry)

    antipode = []
    for a, b in monos:
        # S(x^a y^b) = (-1)^(a+b) y^b x^a = (-1)^(a+b) (x - b)^a y^b
        entry: Vec = {}
        sign = (-1) ** (a + b)
        for k in range(a + 1):
            coeff = sign * comb(a, k) * ((-b) ** (a - k))
            if coeff:
                vadd_into(entry, {index[(k, b)]: Scalar.from_rational(coeff)})
        antipode.append(entry)

    def name(ab):
        a, b = ab
        if a == 0 and b == 0:
            return "1"
        xs = "" if a == 0 else ("x" if a == 1 else f"x^{a}")
        ys = "" if b == 0 else ("y" if b == 1 else f"y^{b}")
        return "*".join(p for p in (xs, ys) if p)

    return StructureBialgebra(
        names=tuple(name(m) for m in monos),
        unit={0: ONE},
        mult=_mult_table(d, mult),
        counit=tuple(ONE if m == (0, 0) else ZERO for m in monos),
        comult=tuple(comult),
        braiding=GenericBraiding.flip(d),
        antipode=tuple(antipode),
        grading=tuple(a + b for a, b in monos),
        truncation=truncation,
    )


def solvable_pair_y_indices(truncation: int = DEFAULT_TRUNCATION) -> tuple[int, ...]:
    """Indices of the y-power monomials inside solvable_pair's basis."""
    h = solvable_pair(truncation)
    return tuple(i for i, nm in enumerate(h.names) if nm == "1" or nm.lstrip("y^0123456789") == "" and nm.startswith("y"))


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    build: Callable[[], StructureBialgebra]
    sub_indices: tuple[int, ...] | None
    degree: int
    expect: Mapping = field(default_factory=dict)


@lru_cache(maxsize=None)
def corpus_entries() -> tuple[CorpusEntry, ...]:
    t = DEFAULT_TRUNCATION
    zeta_str = str(root_of_unity(3))
    return (
        CorpusEntry("kc2", group_algebra_c2, None, 0, {"axioms": "pass"}),
        CorpusEntry("sweedler_h4", sweedler_h4, (0, 1), 3, {  # K = span(1, g)
            "axioms": "pass",
            "filtration_dims": [2, 4],
            "exhaustive": True,
            "r_dim": 2,
            "c_r_first": "-1",
            "c_r_symmetric": True,
            "i_central": False,
            "pi_cocentral": False,
            "c_r_equals_c": False,
            "bosonization": True,
            "pbw_verdict": "PBW_TYPE_TRUE",
        }),
        CorpusEntry("taft3", taft3, (0, 1, 2), 3, {  # K = span(1, g, g^2)
            "axioms": "pass",
            "filtration_dims": [3, 6, 9],
            "exhaustive": True,
            "r_dim": 3,
            "c_r_first": zeta_str,
            "c_r_symmetric": False,
            "i_central": False,
            "pi_cocentral": False,
            "c_r_equals_c": False,
            "bosonization": True,
            "pbw_verdict": "PBW_TYPE_FALSE",
            "first_failure_degree": 2,
        }),
        CorpusEntry("poly_line", poly_line, (0,), t, {
            "axioms": "pass",
            "exhaustive": True,
            "r_dim": t + 1,
            "c_r_symmetric": True,
            "i_central": True,
            "c_r_equals_c": True,
            "gr_c_commutative": True,
            "bosonization": True,
            "pbw_verdict": "PBW_TYPE_TRUE",
            "pbw_dims": [[1, 1]] * (t + 1),
        }),
        CorpusEntry("poly_plane", poly_plane, (0,), t, {
            "axioms": "pass",
            "exhaustive": True,
            "c_r_symmetric": True,
            "i_central": True,
            "c_r_equals_c": True,
            "gr_c_commutative": True,
            "bosonization": True,
            "pbw_verdict": "PBW_TYPE_TRUE",
            "pbw_dims": [[n + 1, n + 1] for n in range(t + 1)],
        }),
        CorpusEntry("solvable_pair", solvable_pair, (0,), t, {
            "axioms": "pass",
            "exhaustive": True,
            "c_r_symmetric": True,
            "i_central": True,
            "c_r_equals_c": True,
            "gr_c_commutative": True,
            "bosonization": True,
            "pbw_verdict": "PBW_TYPE_TRUE",
            "pbw_dims": [[n + 1, n + 1] for n in range(t + 1)],
        }),
        CorpusEntry("solvable_pair_yline", solvable_pair,
                    tuple(sorted(solvable_pair_y_indices(t))), t, {
            "axioms": "pass",
            "exhaustive": True,
            "i_central": True,
            "c_r_equals_c": True,
            "c_r_symmetric": True,
            "bosonization": True,
            "pbw_verdict": "PBW_TYPE_TRUE",
            "pbw_dims": [[1, 1]] * (t + 1),
        }),
        CorpusEntry("super_line", super_line, (0,), t, {
            "axioms": "pass",
            "exhaustive": True,
            "c_r_symmetric": True,
            "i_central": True,
            "c_r_equals_c": True,
            "gr_c_commutative": True,
            "bosonization": True,
            "pbw_verdict": "PBW_TYPE_TRUE",
            "pbw_dims": [[1, 1], [2, 2]] + [[2, 2]] * (t - 1),
        }),
        CorpusEntry("color_plane", color_plane, (0,), t, {
            "axioms": "pass",
            "exhaustive": True,
            "c_r_symmetric": True,
            "i_central": True,
            "c_r_equals_c": True,
            "gr_c_commutative": True,
            "bosonization": True,
            "pbw_verdict": "PBW_TYPE_TRUE",
            "pbw_dims": [[n + 1, n + 1] for n in range(t + 1)],
        }),
    )


@lru_cache(maxsize=None)
def build_cached(name: str) -> StructureBialgebra:
    for entry in corpus_entries():
        if entry.name == name:
            return entry.build()
    raise KeyError(name)
