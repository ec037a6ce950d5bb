"""Subspace ladders inside a structure-constant bialgebra.

One routine, :func:`wedge_ladder`, builds every ladder: the wedge powers
of a subcoalgebra K, taken as coproduct preimages until they stop
growing.  For a braided Hopf subalgebra K that :func:`hopf_filtration`
has validated they are the filtration F_nH = wedge^{n+1} K; from the unit
line of a connected graded bialgebra, its coradical filtration.  An
exhaustive ladder has an adapted basis, the new-pivot rows of its steps
(canonical pivot complements), held as one
:class:`~braidpbw.linalg.Coordinates`.  The associated graded expands H's
unit, products, coproducts and antipode in that basis in one pass: the
degrees of the expansions, with the categoricity of the steps above K,
validate the ladder as a bialgebra filtration, and their
degree-homogeneous parts, with the expanded braiding, are the structure
of gr H, which :func:`associated_graded` returns as a
:class:`StructureBialgebra`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .findim_hopf import StructureBialgebra, render_tensor
from .braided_space import GenericBraiding, is_categorical, is_symmetric
from .linalg import Coordinates, Subspace, kernel
from .multilinear import Vec, add_term, bilinear
from .reporting import FiltrationError, ValidationReport
from .scalars import ONE, ZERO


@dataclass
class FiltrationLadder:
    bialgebra: StructureBialgebra
    steps: list[Subspace]

    @property
    def dims(self) -> list[int]:
        return [s.dim for s in self.steps]

    @property
    def exhaustive(self) -> bool:
        return self.steps[-1].dim == self.bialgebra.dim

    @cached_property
    def adapted(self) -> tuple[Coordinates, list[int]]:
        """Coordinates over the new-pivot rows of the steps of an exhaustive
        ladder, in (step, pivot) order, and the step of each row; built on
        first use.  Steps come in order and RREF pivots ascend, so the rows
        need no sorting."""
        if not self.exhaustive:
            raise FiltrationError("filtration does not exhaust the bialgebra; "
                                  "the associated graded object is not defined on all of H")
        reps: list[Vec] = []
        degrees: list[int] = []
        seen: set[int] = set()
        for n, step in enumerate(self.steps):
            for p, row in zip(step.pivots, step.rows):
                if p not in seen:
                    seen.add(p)
                    reps.append(row)
                    degrees.append(n)
        return Coordinates(self.bialgebra.dim, reps), degrees


def subspace_from_indices(h: StructureBialgebra, indices) -> Subspace:
    return Subspace.span(h.dim, ({i: ONE} for i in indices))


def wedge(h: StructureBialgebra, k: Subspace, w: Subspace) -> Subspace:
    """Preimage under the coproduct of K (x) H + H (x) W, exactly.

    The annihilator of K (x) H + H (x) W is spanned by f (x) g for f in the
    annihilator of K and g in that of W, so the preimage is the kernel of
    the map sending e_i to its constraints sum_{a,b} c^i_{ab} f(a) g(b).
    For coordinate subspaces each f and g is a single basis functional and
    the constraints are the coproduct entries outside the allowed support.
    """
    k_at, w_at = k.functionals_at, w.functionals_at
    images = []
    for i in range(h.dim):
        img: Vec = {}
        for (a, b), c in h.comult[i].items():
            for s, fa in k_at.get(a, ()):
                for t, gb in w_at.get(b, ()):
                    add_term(img, (s, t), c * fa * gb)
        images.append(img)
    return kernel(images)


def validate_hopf_subalgebra(h: StructureBialgebra, k: Subspace) -> ValidationReport:
    """K must be closed under product, coproduct, and antipode, contain the
    unit, and be compatible with the braiding."""
    report = ValidationReport("braided Hopf subalgebra")
    report.checked += 1
    if not k.contains_vector(h.unit):
        report.record("unit-membership", (), "unit", "in K")
    f_at = k.functionals_at
    for a, u in enumerate(k.rows):
        for b, v in enumerate(k.rows):
            report.checked += 1
            if not k.contains_vector(h.multiply(u, v)):
                report.record("product-closure", (a, b), "K.K", "in K")
    for a, u in enumerate(k.rows):
        # (f x id) and (id x f) of Delta(u) for every annihilator functional f
        # of K, keyed by (leg, functional, other leg): all vanish iff Delta(u)
        # lies in K (x) K
        outside: Vec = {}
        for (x, y), c in h.comultiply(u).items():
            for t, fx in f_at.get(x, ()):
                add_term(outside, (0, t, y), c * fx)
            for t, fy in f_at.get(y, ()):
                add_term(outside, (1, t, x), c * fy)
        report.checked += 1
        if outside:
            report.record("coproduct-closure", (a,), "Delta(K)", "in K(x)K")
        if h.antipode is not None:
            report.checked += 1
            if not k.contains_vector(h.apply_antipode(u)):
                report.record("antipode-closure", (a,), "S(K)", "in K")
    report.checked += 1
    if not is_categorical(h.braiding, k):
        report.record("categorical", (), "c(K(x)H)", "in H(x)K (and symmetric condition)")
    return report


def hopf_filtration(h: StructureBialgebra, k: Subspace) -> FiltrationLadder:
    """The ladder of wedge powers of a validated braided Hopf subalgebra."""
    validation = validate_hopf_subalgebra(h, k)
    if not validation.ok:
        raise FiltrationError("K is not a categorical braided Hopf subalgebra:\n"
                              + validation.summary())
    return wedge_ladder(h, k)


def wedge_ladder(h: StructureBialgebra, k: Subspace) -> FiltrationLadder:
    """The wedge powers of a subcoalgebra K: K, then wedge(K, W) of each
    step W, until they stop growing or fill H."""
    steps = [k]
    while True:
        nxt = wedge(h, k, steps[-1])
        if not nxt.contains(steps[-1]):
            raise FiltrationError("wedge step is not increasing")
        if nxt.dim == steps[-1].dim:
            break
        steps.append(nxt)
        if nxt.dim == h.dim:
            break
    return FiltrationLadder(h, steps)


def expand_products(h: StructureBialgebra, basis: Coordinates) -> list[list[Vec | None]]:
    """The product in h of each pair of basis vectors, in coordinates over
    them; None for a pair whose truncation degrees sum above the cap."""
    reps = basis.vectors
    gates = [h.gate_of(v) for v in reps]
    return [[None if ga + gb > h.cap else basis.coords(h.multiply(u, v))
             for v, gb in zip(reps, gates)]
            for u, ga in zip(reps, gates)]


def transported_bialgebra(h: StructureBialgebra, basis: Coordinates, degrees: list[int],
                          prefix: str, unit: Vec, products: list[list[Vec | None]],
                          comult: list, braiding: GenericBraiding,
                          antipode: tuple | None) -> StructureBialgebra:
    """The graded bialgebra on ``basis.vectors`` with the given unit,
    coproduct, braiding and antipode.  The product keeps the
    degree-homogeneous part of each expansion in ``products`` (from
    :func:`expand_products`; None stores zero).  Names and the counit are
    transported from h: a representative that is a basis vector of h keeps
    its name, the counit keeps its degree-zero part, and truncation degrees
    are those of the representatives in h."""
    reps = basis.vectors
    names: list[str] = []
    seen: dict[str, int] = {}
    for r, vec in enumerate(reps):
        name = f"{prefix}{degrees[r]}_{r}"
        if len(vec) == 1:
            (i, c), = vec.items()
            if c.is_one():
                name = h.names[i]
        if name in seen:
            seen[name] += 1
            name = f"{name}'{seen[name]}"
        else:
            seen[name] = 0
        names.append(name)

    mult = tuple(tuple({} if prod is None else
                       {r: c for r, c in prod.items() if degrees[r] == degrees[a] + degrees[b]}
                       for b, prod in enumerate(row))
                 for a, row in enumerate(products))
    gates = tuple(h.gate_of(v) for v in reps)
    return StructureBialgebra(
        names=tuple(names),
        unit=unit,
        mult=mult,
        counit=tuple(h.counit_of(v) if degrees[r] == 0 else ZERO for r, v in enumerate(reps)),
        comult=tuple(comult),
        braiding=braiding,
        antipode=antipode,
        grading=tuple(degrees),
        truncation=h.truncation,
        trunc_grading=gates if h.truncation is not None else None,
    )


def associated_graded(h: StructureBialgebra, ladder: FiltrationLadder) -> StructureBialgebra:
    """The graded bialgebra on the ladder quotients, by structure constants.

    Representatives are the new-pivot rows of each step.  H's unit, the
    product of each pair of representatives below the truncation, and the
    coproduct and antipode of each representative are expanded once in the
    adapted basis.  Their degrees validate the ladder as a bialgebra
    filtration: the unit lies in the bottom step, products land in the
    summed step, coproducts respect the ladder degreewise, the antipode
    preserves steps, and the steps above the bottom one are categorical
    (the bottom step is K, which :func:`hopf_filtration` validates).  Their
    degree-homogeneous parts, with those of the braided representative
    pairs, are gr's structure tensors.
    """
    basis, degrees = ladder.adapted
    reps = basis.vectors
    top = len(ladder.steps) - 1
    report = ValidationReport("bialgebra filtration")
    report.checked += 1
    unit = basis.coords(h.unit)
    if any(degrees[r] != 0 for r in unit):
        report.record("unit-degree", (), "unit", "in bottom step")
    products = expand_products(h, basis)
    for a, row in enumerate(products):
        for b, prod in enumerate(row):
            if prod is None:
                report.skipped += 1
                continue
            report.checked += 1
            target = min(degrees[a] + degrees[b], top)
            if any(degrees[r] > target for r in prod):
                report.record("product-degree", (a, b), "deg product", f"<= {target}")
    comult: list[dict] = []
    antipode: list[Vec] | None = None if h.antipode is None else []
    for a, u in enumerate(reps):
        report.checked += 1
        n = degrees[a]
        cop = basis.coords_pair(h.comultiply(u))
        if any(degrees[r] + degrees[s] > n for (r, s) in cop):
            report.record("coproduct-degree", (a,), "split degrees", f"sum <= {n}")
        comult.append({(r, s): c for (r, s), c in cop.items() if degrees[r] + degrees[s] == n})
        if antipode is not None:
            report.checked += 1
            sv = basis.coords(h.apply_antipode(u))
            if any(degrees[r] > n for r in sv):
                report.record("antipode-degree", (a,), "deg S", f"<= {n}")
            antipode.append({r: c for r, c in sv.items() if degrees[r] == n})
    report.checked += 1
    if not all(is_categorical(h.braiding, s) for s in ladder.steps[1:]):
        report.record("categorical-steps", (), "steps", "categorical")
    if not report.ok:
        raise FiltrationError("not a bialgebra filtration:\n" + report.summary())

    c = h.braiding.rows
    braid_rows = [[{(r, s): x for (r, s), x in basis.coords_pair(bilinear(c, u, v)).items()
                    if degrees[r] + degrees[s] == degrees[a] + degrees[b]}
                   for b, v in enumerate(reps)]
                  for a, u in enumerate(reps)]
    return transported_bialgebra(h, basis, degrees, "f", unit, products, comult,
                                 GenericBraiding(braid_rows),
                                 None if antipode is None else tuple(antipode))


def check_commutator_filtration(h: StructureBialgebra, ladder: FiltrationLadder,
                                comm: list[list[Vec]]) -> ValidationReport | None:
    """Commutators drop one filtration level: the bottom-step hypothesis and
    the general statement, verified on representative pairs by membership.
    Each commutator [u, v] is expanded bilinearly from the commutator table
    ``comm`` of h.  None when the braiding is not symmetric and the statement
    does not apply."""
    if not is_symmetric(h.braiding):
        return None
    report = ValidationReport("commutator filtration")
    basis, degrees = ladder.adapted
    reps = basis.vectors
    gates = [h.gate_of(v) for v in reps]
    top = len(ladder.steps) - 1
    for a, u in enumerate(reps):
        for b, v in enumerate(reps):
            if gates[a] + gates[b] > h.cap:
                report.skipped += 1
                continue
            report.checked += 1
            m, n = degrees[a], degrees[b]
            target = min(m + n - 1, top)
            bracket = bilinear(comm, u, v)
            if any(degrees[r] > target for r in basis.coords(bracket)):
                report.record("commutator-level", (m, n),
                              render_tensor(h, bracket),
                              f"inside step {target}")
    return report
