"""PBW verdicts for connected graded braided bialgebras.

The indecomposables of the augmentation ideal carry an induced braiding.
They are represented by the target's basis vectors at the non-pivot
columns of the ideal's square, and :class:`QSpace` holds their indices.
The canonical graded algebra map from the braided symmetric algebra on
them into the target sends each standard monomial to the ordered product
of those basis vectors, read off the product table.  The verdict is
positive exactly when that map is degreewise bijective, kills the braided
symmetrising ideal, and intertwines the braidings on generators; the
first degree where any of these fails is recorded.  A positive verdict
makes each degree's matrix square and of full rank, so the standard
monomials name a basis; it is emitted whenever the induced braiding is
symmetric.  Every stage reads the target :class:`StructureBialgebra` (for
coinvariants, their ``algebra``), which :func:`pbw_verdict` first
requires to be graded and connected.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .braided_space import GenericBraiding, braid_check, is_symmetric
from .findim_hopf import StructureBialgebra
from .linalg import Coordinates, Subspace, rank
from .multilinear import Vec, linear, vadd_into, vec_equal
from .reporting import BraidpbwError, InputError, require_degree
from .scalars import ONE, ZERO
from .symmetric_algebra import monomial_str, normal_forms

PBW_TYPE_TRUE = "PBW_TYPE_TRUE"
PBW_TYPE_FALSE = "PBW_TYPE_FALSE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class QSpace:
    """Indecomposable generators: the indices of the target's basis vectors
    that represent them, and the braiding induced on the quotient.  Their
    degrees and names are the target's."""

    indices: list[int]
    braiding: GenericBraiding

    @property
    def dim(self) -> int:
        return len(self.indices)


@dataclass
class PBWReport:
    verdict: str
    degreewise_dims: list[tuple[int, int]]  # (target dim, symmetric-algebra dim)
    requested_degree: int
    verified_degree: int
    first_failure_degree: int | None = None
    witness: dict[int, list[list[str]]] | None = None
    monomial_basis: list[str] | None = None
    braiding_diagonal: bool = False
    braiding_symmetric: bool = False
    intertwines_generators: bool = True
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        """The report document, with the basis or the refusal."""
        basis, refusal = pbw_basis(self)
        return {
            "verdict": self.verdict,
            "dims": [list(p) for p in self.degreewise_dims],
            "requested_degree": self.requested_degree,
            "verified_degree": self.verified_degree,
            "first_failure_degree": self.first_failure_degree,
            "witness": self.witness,
            "basis": basis,
            "braiding_diagonal": self.braiding_diagonal,
            "braiding_symmetric": self.braiding_symmetric,
            "intertwines_generators": self.intertwines_generators,
            "notes": self.notes,
            "refusal": refusal,
        }


def _require_connected_graded(h: StructureBialgebra) -> None:
    if h.grading is None:
        raise InputError("PBW analysis needs a graded bialgebra")
    zero = h.degree_indices(0)
    if len(zero) != 1 or not vec_equal(h.unit, {zero[0]: ONE}):
        raise InputError("PBW analysis needs a connected target "
                         "(degree-0 part spanned by the unit)")


def compute_Q(h: StructureBialgebra) -> QSpace:
    """The augmentation ideal modulo its square, with induced braiding.

    Degreewise canonical complement: standard basis vectors at the
    non-pivot columns of the span of products of positive-degree elements.
    The target must be connected and graded (checked by :func:`pbw_verdict`).
    """
    d = h.dim
    positive = [i for i in range(d) if h.degree(i) > 0]
    if any(not h.counit[i].is_zero() for i in positive):
        raise InputError("counit does not vanish in positive degree")
    gates, mult = h.gates, h.mult
    square = Subspace.span(d, [mult[i][j] for i in positive for j in positive
                               if gates[i] + gates[j] <= h.cap])
    pivset = set(square.pivots)
    q_indices = [i for i in positive if i not in pivset]
    # coordinates over the square's RREF rows followed by e_q; the e_q part
    # is the class modulo the square
    basis = Coordinates(d, list(square.rows) + [{i: ONE} for i in q_indices])
    first_q = square.dim

    c = h.braiding.rows
    rows = []
    for ia in q_indices:
        row = []
        for ib in q_indices:
            positive_part = {(u, v): s for (u, v), s in c[ia][ib].items()
                             if h.degree(u) > 0 and h.degree(v) > 0}
            row.append({(x - first_q, y - first_q): s
                        for (x, y), s in basis.coords_pair(positive_part).items()
                        if x >= first_q and y >= first_q})
        rows.append(row)
    braiding = GenericBraiding(rows)
    if not braid_check(braiding):
        raise BraidpbwError("induced braiding on the generator space fails the braid equation")
    return QSpace(indices=q_indices, braiding=braiding)


def canonical_map(q: QSpace, h: StructureBialgebra, n_max: int):
    """Per-degree data of the canonical graded algebra map.

    For each degree: the standard monomials of that weight in the braided
    symmetric algebra (from :func:`normal_forms`, ascending), the matrix of
    ordered products of representatives over the target's graded slice, each
    product formed by multiplying with the generators' product columns, and
    whether the symmetrising ideal maps to zero through that degree.  The map
    is an algebra map out of the free algebra, so it kills the ideal exactly
    when it kills the generating relations x_a x_b - c(x_a x_b).  Grouping
    the standard monomials by weight needs every relation to be homogeneous;
    a braiding that mixes weights is an engine error.
    """
    deg, c = [h.degree(i) for i in q.indices], q.braiding.rows
    pairs = [(a, b) for a in range(q.dim) for b in range(q.dim)]
    if any(deg[k] + deg[l] != deg[a] + deg[b] for a, b in pairs for k, l in c[a][b]):
        raise BraidpbwError("induced braiding on the generator space does not preserve degree")
    columns = [[row[g] for row in h.mult] for g in q.indices]
    product_cache: dict[tuple[int, ...], Vec] = {(): h.unit}

    def product_of(word: tuple[int, ...]) -> Vec:
        vec = product_cache.get(word)
        if vec is None:
            vec = product_cache[word] = linear(columns[word[-1]], product_of(word[:-1]))
        return vec

    def relation_fails(a: int, b: int) -> bool:
        img: Vec = dict(product_of((a, b)))
        for kl, s in c[a][b].items():
            vadd_into(img, product_of(kl), -s)
        return bool(img)

    first_failing = min((deg[a] + deg[b] for a, b in pairs
                         if deg[a] + deg[b] <= n_max and relation_fails(a, b)), default=None)
    standard = [w for words in normal_forms(q.braiding, n_max)[0] for w in words]
    out = {}
    for n in range(1, n_max + 1):
        monomials = sorted(w for w in standard if sum(deg[i] for i in w) == n)
        cols = h.degree_indices(n)
        col_pos = {i: t for t, i in enumerate(cols)}
        matrix = []
        for w in monomials:
            row = [ZERO] * len(cols)
            for i, s in product_of(w).items():
                if i not in col_pos:
                    raise BraidpbwError("product of representatives is not homogeneous")
                row[col_pos[i]] = s
            matrix.append(row)
        out[n] = {
            "monomials": monomials,
            "matrix": matrix,
            "target_dim": len(cols),
            "sq_dim": len(monomials),
            "ideal_maps_to_zero": first_failing is None or n < first_failing,
        }
    return out


def _generators_intertwine(q: QSpace, h: StructureBialgebra) -> bool:
    """The braiding of the target restricted to representative pairs equals
    the induced braiding expressed through representatives.  These are basis
    vectors e_i of the target, so the sides are the target's braiding rows at
    their indices and Q's rows relabelled to those indices."""
    index, c, cq = q.indices, h.braiding.rows, q.braiding.rows
    for a, ia in enumerate(index):
        for b, ib in enumerate(index):
            induced = {(index[x], index[y]): s for (x, y), s in cq[a][b].items()}
            if not vec_equal(c[ia][ib], induced):
                return False
    return True


def pbw_verdict(h: StructureBialgebra, n_max: int) -> PBWReport:
    """Is the target isomorphic, as a braided graded algebra, to the braided
    symmetric algebra on its indecomposables?  Verified degree by degree
    through the canonical map."""
    require_degree(n_max)
    _require_connected_graded(h)
    q = compute_Q(h)
    diag = q.braiding.diagonal_coefficients() is not None
    sym = is_symmetric(q.braiding)
    verified = n_max
    notes = []
    if h.truncation is not None and h.truncation < n_max:
        verified = h.truncation
        notes.append(f"target truncated at degree {h.truncation}; "
                     f"degrees above it are unverifiable")
    data = canonical_map(q, h, verified)
    dims: list[tuple[int, int]] = [(1, 1)]
    first_failure = None
    witness: dict[int, list[list[str]]] = {}
    for n in range(1, verified + 1):
        entry = data[n]
        dims.append((entry["target_dim"], entry["sq_dim"]))
        if first_failure is None:
            bijective = (entry["target_dim"] == entry["sq_dim"]
                         and rank(entry["matrix"]) == entry["sq_dim"]
                         and entry["ideal_maps_to_zero"])
            if bijective:
                witness[n] = [[str(c) for c in row] for row in entry["matrix"]]
            else:
                first_failure = n
    intertwines = _generators_intertwine(q, h)
    if first_failure is None and not intertwines:
        first_failure = 1
        notes.append("the canonical map does not intertwine the braidings on generators")
    if first_failure is not None:
        verdict = PBW_TYPE_FALSE
        witness = {}
    elif verified < n_max:
        verdict = INCONCLUSIVE
    else:
        verdict = PBW_TYPE_TRUE
    basis = None
    if verdict == PBW_TYPE_TRUE and sym:
        names = [h.names[i] for i in q.indices]
        basis = ["1"] + [monomial_str(names, w)
                         for n in range(1, verified + 1) for w in data[n]["monomials"]]
    return PBWReport(
        verdict=verdict,
        degreewise_dims=dims,
        requested_degree=n_max,
        verified_degree=verified,
        first_failure_degree=first_failure,
        witness=witness or None,
        monomial_basis=basis,
        braiding_diagonal=diag,
        braiding_symmetric=sym,
        intertwines_generators=intertwines,
        notes=notes,
    )


def pbw_basis(report: PBWReport) -> tuple[list[str] | None, str | None]:
    """(basis, refusal): the verdict's monomial basis for a positive verdict
    with symmetric braiding on the generators; an explicit refusal otherwise."""
    if report.verdict != PBW_TYPE_TRUE:
        return None, f"verdict is {report.verdict}; no basis is claimed"
    if not report.braiding_symmetric:
        return None, ("braiding on the generator space is not symmetric; "
                      "no monomial basis is guaranteed")
    return report.monomial_basis, None
