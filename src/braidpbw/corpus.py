"""Built-in test corpus: small bialgebras with known behaviour.

Ships the group algebra of C2, the Taft algebras (the 4-dimensional Sweedler
algebra at n = 2, the 9-dimensional one at a primitive cube root of unity at
n = 3), degree-6 truncations of the polynomial line, the polynomial plane,
the enveloping algebra of the 2-dimensional solvable Lie algebra, the super
line, and an anticommuting color plane.  Each algebra is stated by a basis
of words in its generators, its product table, its braiding, and the
coproduct and antipode of its generators; :func:`_from_generators` extends
those two to the whole basis.  The braided symmetric algebras are stated
by their braiding alone, through :func:`symmetric_bialgebra`.  Each
pipeline entry records the expected outcomes; everything here is
re-derived by the engine's oracles in tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from math import comb
from typing import Callable, Mapping

from .braided_space import (
    Bicharacter,
    FiniteAbelianGroup,
    GenericBraiding,
    GradedBasis,
    diagonal_braiding,
)
from .findim_hopf import StructureBialgebra
from .multilinear import Vec, vadd_into
from .scalars import MINUS_ONE, ONE, ZERO, Scalar, root_of_unity
from .symmetric_algebra import monomial_str, normal_form, normal_forms, require_symmetric

DEFAULT_TRUNCATION = 6


def _mult_table(d: int, fn) -> tuple[tuple[Vec, ...], ...]:
    return tuple(tuple(fn(i, j) for j in range(d)) for i in range(d))


def _from_generators(words, mult, braiding: GenericBraiding, gen_comult, gen_antipode):
    """The coproduct and antipode of a basis of words, extended from the
    generators.

    words[0] is the empty word (the unit), and every other word w is e_u e_g
    with u = w[:-1] a basis word and g = w[-1:] a generator.  The coproduct is
    an algebra map into the braided tensor square, Delta(e_w) = Delta(e_u)
    Delta(e_g), and the antipode a braided anti-homomorphism, S(e_w) =
    m c(S(e_u) (x) S(e_g)); both products are read off ``mult`` and the
    braiding's rows.  gen_comult and gen_antipode map a generator's basis
    index to its coproduct and antipode."""
    rows = braiding.rows
    index = {w: t for t, w in enumerate(words)}
    comult, antipode = [{(0, 0): ONE}], [{0: ONE}]
    for w in words[1:]:
        u, g = index[w[:-1]], index[w[-1:]]
        delta: Vec = {}
        for (a, b), c1 in comult[u].items():
            for (c, e), c2 in gen_comult[g].items():
                for (k, l), s in rows[b][c].items():
                    right = mult[l][e]
                    for p, s1 in mult[a][k].items():
                        vadd_into(delta, {(p, q): s1 * s2 for q, s2 in right.items()}, c1 * c2 * s)
        anti: Vec = {}
        for p, c1 in antipode[u].items():
            for q, c2 in gen_antipode[g].items():
                for (k, l), s in rows[p][q].items():
                    vadd_into(anti, mult[k][l], c1 * c2 * s)
        comult.append(delta)
        antipode.append(anti)
    return tuple(comult), tuple(antipode)


def _primitives(words) -> tuple[dict, dict]:
    """Delta(x) = x (x) 1 + 1 (x) x and S(x) = -x for every generator x."""
    gens = [t for t, w in enumerate(words) if len(w) == 1]
    return {t: {(t, 0): ONE, (0, t): ONE} for t in gens}, {t: {t: MINUS_ONE} for t in gens}


def group_algebra_c2() -> StructureBialgebra:
    """Group algebra of the cyclic group of order 2; trivial braiding.  The
    generator g is group-like and its own inverse."""
    table = _mult_table(2, lambda i, j: {(i + j) % 2: ONE})
    braiding = GenericBraiding.flip(2)
    comult, antipode = _from_generators(((), (0,)), table, braiding,
                                        {1: {(1, 1): ONE}}, {1: {1: ONE}})
    return StructureBialgebra(names=("1", "g"), unit={0: ONE}, mult=table, counit=(ONE, ONE),
                              comult=comult, braiding=braiding, antipode=antipode)


def taft(n: int) -> StructureBialgebra:
    """The n^2-dimensional Taft algebra at zeta, a primitive n-th root of unity.

    Relations g^n = 1, x^n = 0, gx = zeta xg; g is group-like and x a
    (1, g)-skew primitive, Delta(x) = x (x) 1 + g (x) x, S(x) = -g^(n-1) x.
    The basis vector g^a x^b sits at index b n + a and has degree b.
    Trivial braiding.
    """
    zeta = root_of_unity(n)
    d = n * n
    words = [(0,) * a + (1,) * b for b in range(n) for a in range(n)]

    def mult(i, j):
        (b1, a1), (b2, a2) = divmod(i, n), divmod(j, n)
        if b1 + b2 >= n:
            return {}
        return {(b1 + b2) * n + (a1 + a2) % n: zeta ** ((-b1 * a2) % n)}

    table = _mult_table(d, mult)
    braiding = GenericBraiding.flip(d)
    comult, antipode = _from_generators(
        words, table, braiding,
        {1: {(1, 1): ONE}, n: {(n, 0): ONE, (1, n): ONE}},
        {1: {n - 1: ONE}, n: {2 * n - 1: MINUS_ONE}})
    return StructureBialgebra(
        names=tuple(monomial_str(("g", "x"), w) for w in words),
        unit={0: ONE},
        mult=table,
        counit=tuple(ONE if t < n else ZERO for t in range(d)),
        comult=comult,
        braiding=braiding,
        antipode=antipode,
        grading=tuple(t // n for t in range(d)),
    )


def sweedler_h4() -> StructureBialgebra:
    """The 4-dimensional Sweedler algebra, the Taft algebra at n = 2:
    g^2 = 1, x^2 = 0, xg = -gx."""
    return replace(taft(2), names=("1", "g", "x", "gx"))


def taft3() -> StructureBialgebra:
    """The 9-dimensional Taft algebra at a primitive cube root of unity."""
    return taft(3)


def symmetric_bialgebra(names, c: GenericBraiding, truncation: int) -> StructureBialgebra:
    """The braided symmetric algebra S(V, c) of a symmetric braiding c on V,
    given by its row table, on primitive generators and truncated by degree.

    The basis is the standard monomials of :func:`normal_forms`, and products
    beyond the truncation are dropped (the grading is strict, so the truncation
    is consistent).  The braiding is extended from the generators' rows:
    c(e_u (x) e_v e_g) = (m (x) id)(id (x) c)(c (x) id) and
    c(e_v e_h (x) e_g) = (id (x) m)(c (x) id)(id (x) c).  Raises InputError
    when c is not symmetric.
    """
    require_symmetric(c)
    standard, table = normal_forms(c, truncation)
    words = [w for ws in standard for w in ws]
    index = {w: t for t, w in enumerate(words)}
    d = len(words)

    def mult(ti, tj):
        w = words[ti] + words[tj]
        if len(w) > truncation:
            return {}
        return {index[v]: a for v, a in normal_form(table, w).items()}

    mult_rows = _mult_table(d, mult)

    @cache
    def braid(s, t) -> Vec:
        u, v = words[s], words[t]
        if not u or not v:
            return {(t, s): ONE}
        out: Vec = {}
        if len(v) > 1:
            g = index[v[-1:]]
            for (k, l), a in braid(s, index[v[:-1]]).items():
                for (p, q), b in braid(l, g).items():
                    vadd_into(out, {(r, q): e for r, e in mult_rows[k][p].items()}, a * b)
        elif len(u) > 1:
            for (k, l), a in braid(index[u[-1:]], t).items():
                for (p, q), b in braid(index[u[:-1]], k).items():
                    vadd_into(out, {(p, r): e for r, e in mult_rows[q][l].items()}, a * b)
        else:
            out = {(index[(k,)], index[(l,)]): a for (k, l), a in c.rows[u[0]][v[0]].items()}
        return out

    braiding = GenericBraiding([[braid(s, t) for t in range(d)] for s in range(d)])
    comult, antipode = _from_generators(words, mult_rows, braiding, *_primitives(words))
    return StructureBialgebra(
        names=tuple(monomial_str(names, w) for w in words),
        unit={0: ONE},
        mult=mult_rows,
        counit=tuple(ONE if not w else ZERO for w in words),
        comult=comult,
        braiding=braiding,
        antipode=antipode,
        grading=tuple(len(w) for w in words),
        truncation=truncation,
    )


def primitively_generated(names: list[str], group: FiniteAbelianGroup,
                          table, degrees, truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """S(V, c) for the diagonal braiding of a bicharacter, given by its table
    on the group's generators, and the generators' group degrees."""
    c = diagonal_braiding(Bicharacter(group, table), GradedBasis(tuple(names), tuple(degrees)))
    return symmetric_bialgebra(names, c, truncation)


def poly_line(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """Polynomial algebra on one primitive generator, truncated."""
    return symmetric_bialgebra(["x"], GenericBraiding.flip(1), truncation)


def poly_plane(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """Polynomial algebra on two commuting primitives (abelian Lie algebra)."""
    return symmetric_bialgebra(["x", "y"], GenericBraiding.flip(2), truncation)


def super_line(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """One even and one odd primitive generator with the sign braiding."""
    c = GenericBraiding.diagonal([[ONE, ONE], [ONE, MINUS_ONE]])
    return symmetric_bialgebra(["x", "th"], c, truncation)


def color_plane(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """Two anticommuting, non-nilpotent primitives: c(x (x) y) = -y (x) x."""
    c = GenericBraiding.diagonal([[ONE, MINUS_ONE], [MINUS_ONE, ONE]])
    return symmetric_bialgebra(["x", "y"], c, truncation)


def solvable_pair(truncation: int = DEFAULT_TRUNCATION) -> StructureBialgebra:
    """Enveloping algebra of the solvable Lie algebra with bracket [x, y] = y.

    Ordered monomials x^a y^b with a + b <= T, by degree and then by a; the
    stored degree is the monomial degree, which products respect only up to
    lower-order terms, so the degree serves as truncation bookkeeping rather
    than a grading.
    """
    monos = [(a, n - a) for n in range(truncation + 1) for a in range(n + 1)]
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

    words = [(0,) * a + (1,) * b for a, b in monos]
    mult_rows = _mult_table(d, mult)
    braiding = GenericBraiding.flip(d)
    comult, antipode = _from_generators(words, mult_rows, braiding, *_primitives(words))
    return StructureBialgebra(
        names=tuple(monomial_str(("x", "y"), w) for w in words),
        unit={0: ONE},
        mult=mult_rows,
        counit=tuple(ONE if m == (0, 0) else ZERO for m in monos),
        comult=comult,
        braiding=braiding,
        antipode=antipode,
        grading=tuple(a + b for a, b in monos),
        truncation=truncation,
    )


def solvable_pair_y_indices(truncation: int = DEFAULT_TRUNCATION) -> tuple[int, ...]:
    """Indices of the y-power monomials inside solvable_pair's basis: y^n
    opens degree n, at n(n + 1)/2."""
    return tuple(n * (n + 1) // 2 for n in range(truncation + 1))


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
    # shared by the S(V, c) and enveloping-algebra entries: R is of PBW type
    # with c_R = c symmetric; over K = k1, gr H is c-commutative too
    pbw_type = {"axioms": "pass", "exhaustive": True, "c_r_symmetric": True, "i_central": True,
                "c_r_equals_c": True, "bosonization": True, "pbw_verdict": "PBW_TYPE_TRUE"}
    commutative = {**pbw_type, "gr_c_commutative": True}
    plane = {**commutative, "pbw_dims": [[n + 1, n + 1] for n in range(t + 1)]}
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
        CorpusEntry("poly_line", poly_line, (0,), t,
                    {**commutative, "r_dim": t + 1, "pbw_dims": [[1, 1]] * (t + 1)}),
        CorpusEntry("poly_plane", poly_plane, (0,), t, plane),
        CorpusEntry("solvable_pair", solvable_pair, (0,), t, plane),
        CorpusEntry("solvable_pair_yline", solvable_pair,
                    tuple(sorted(solvable_pair_y_indices(t))), t,
                    {**pbw_type, "pbw_dims": [[1, 1]] * (t + 1)}),
        CorpusEntry("super_line", super_line, (0,), t,
                    {**commutative, "pbw_dims": [[1, 1], [2, 2]] + [[2, 2]] * (t - 1)}),
        CorpusEntry("color_plane", color_plane, (0,), t, plane),
    )


@lru_cache(maxsize=None)
def build_cached(name: str) -> StructureBialgebra:
    for entry in corpus_entries():
        if entry.name == name:
            return entry.build()
    raise KeyError(name)
