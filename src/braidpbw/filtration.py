"""Subspace ladders inside a structure-constant bialgebra.

Wedge preimages under the coproduct build two kinds of ladders: the
filtration induced by a braided Hopf subalgebra, and the coradical
filtration of a connected graded bialgebra.  An exhaustive validated
ladder yields the associated graded bialgebra with induced product,
coproduct, braiding, and antipode, computed through canonical pivot
complements.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .findim_hopf import StructureBialgebra, render_tensor
from .braided_space import GenericBraiding, is_categorical, is_symmetric
from .linalg import Coordinates, Subspace, kernel
from .multilinear import Vec, add_term, contract, vadd_into
from .reporting import FiltrationError, ValidationReport
from .scalars import ONE, ZERO


@dataclass
class FiltrationLadder:
    bialgebra: StructureBialgebra
    steps: list[Subspace]
    exhaustive: bool
    categorical_steps: bool
    antipode_stable: bool

    @property
    def dims(self) -> list[int]:
        return [s.dim for s in self.steps]

    @property
    def top(self) -> Subspace:
        return self.steps[-1]

    @cached_property
    def adapted(self) -> "AdaptedBasis":
        """The adapted basis of an exhaustive ladder, built on first use."""
        return AdaptedBasis.from_ladder(self)


def subspace_from_indices(h: StructureBialgebra, indices) -> Subspace:
    return Subspace.span(h.dim, ({i: ONE} for i in indices), ambient=h)


def wedge(k: Subspace, w: Subspace) -> Subspace:
    """Preimage under the coproduct of K (x) H + H (x) W, exactly.

    The annihilator of K (x) H + H (x) W is spanned by f (x) g for f in the
    annihilator of K and g in that of W, so the preimage is the kernel of
    the map sending e_i to its constraints sum_{a,b} c^i_{ab} f(a) g(b).
    For coordinate subspaces each f and g is a single basis functional and
    the constraints are the coproduct entries outside the allowed support.
    """
    h: StructureBialgebra = k.ambient or w.ambient
    if h is None:
        raise ValueError("wedge needs subspaces attached to a bialgebra")
    k_at: dict[int, list] = {}  # column -> (functional index, value)
    for t, f in enumerate(k.functionals()):
        for a, fa in f.items():
            k_at.setdefault(a, []).append((t, fa))
    w_at: dict[int, list] = {}
    for t, g in enumerate(w.functionals()):
        for b, gb in g.items():
            w_at.setdefault(b, []).append((t, gb))
    images = []
    for i in range(h.dim):
        img: Vec = {}
        for (a, b), c in h.comult[i].items():
            for s, fa in k_at.get(a, ()):
                for t, gb in w_at.get(b, ()):
                    add_term(img, (s, t), c * fa * gb)
        images.append(img)
    return kernel(images, ambient=h)


def validate_hopf_subalgebra(h: StructureBialgebra, k: Subspace) -> ValidationReport:
    """K must be closed under product, coproduct, and antipode, contain the
    unit, and be compatible with the braiding."""
    report = ValidationReport("braided Hopf subalgebra")
    report.checked += 1
    if not k.contains_vector(h.unit):
        report.record("unit-membership", (), "unit", "in K")
    funcs = k.functionals()
    for a, u in enumerate(k.rows):
        for b, v in enumerate(k.rows):
            report.checked += 1
            if not k.contains_vector(h.multiply(u, v)):
                report.record("product-closure", (a, b), "K.K", "in K")
    for a, u in enumerate(k.rows):
        cu = h.comultiply(u)
        report.checked += 1
        if any(contract(cu, 0, f) or contract(cu, 1, f) for f in funcs):
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
    # validation has found K categorical, the first step of the ladder
    return _wedge_ladder(h, k, k, start_categorical=True)


def coradical_filtration_connected(h: StructureBialgebra) -> FiltrationLadder:
    """Coradical filtration of a connected graded bialgebra: iterated wedge
    powers of the span of the unit."""
    if h.grading is None:
        raise FiltrationError("coradical filtration needs a graded bialgebra")
    zero_indices = h.degree_indices(0)
    if len(zero_indices) != 1:
        raise FiltrationError(
            f"not connected: degree-0 component has dimension {len(zero_indices)}")
    base = Subspace.span(h.dim, [h.unit], ambient=h)
    if not base.contains_vector({zero_indices[0]: ONE}):
        raise FiltrationError("not connected: degree-0 component differs from the unit line")
    return _wedge_ladder(h, base, base)


def _wedge_ladder(h: StructureBialgebra, k: Subspace, start: Subspace,
                  start_categorical: bool = False) -> FiltrationLadder:
    """Wedge steps from ``start`` until they stop growing; ``start_categorical``
    says the caller has already found ``start`` categorical."""
    steps = [start]
    while True:
        nxt = wedge(k, steps[-1])
        if not nxt.contains(steps[-1]):
            raise FiltrationError("wedge step is not increasing")
        if nxt.dim == steps[-1].dim:
            break
        steps.append(nxt)
        if nxt.dim == h.dim:
            break
    categorical = all(is_categorical(h.braiding, s)
                      for s in (steps[1:] if start_categorical else steps))
    stable = True
    if h.antipode is not None:
        for s in steps:
            for r in s.rows:
                if not s.contains_vector(h.apply_antipode(r)):
                    stable = False
    return FiltrationLadder(
        bialgebra=h,
        steps=steps,
        exhaustive=steps[-1].dim == h.dim,
        categorical_steps=categorical,
        antipode_stable=stable,
    )


@dataclass
class AdaptedBasis:
    """Canonical complements along a ladder: the new-pivot rows of each step
    as representatives, their filtration and truncation degrees, and
    coordinates over them."""

    basis: Coordinates
    fil_degrees: list[int]
    gate_degrees: list[int]

    @staticmethod
    def from_ladder(ladder: FiltrationLadder) -> "AdaptedBasis":
        if not ladder.exhaustive:
            raise FiltrationError("filtration does not exhaust the bialgebra; "
                                  "the associated graded object is not defined on all of H")
        h = ladder.bialgebra
        entries: list[tuple[int, int, Vec]] = []
        seen: set[int] = set()
        for n, step in enumerate(ladder.steps):
            for j, p in enumerate(step.pivots):
                if p not in seen:
                    seen.add(p)
                    entries.append((n, p, step.rows[j]))
        entries.sort(key=lambda e: (e[0], e[1]))
        reps = [e[2] for e in entries]
        return AdaptedBasis(Coordinates(h.dim, reps), [e[0] for e in entries],
                            [h.gate_of(r) for r in reps])

    @property
    def dim(self) -> int:
        return self.basis.dim

    def rep_vec(self, r: int) -> Vec:
        return self.basis.vectors[r]


def validate_bialgebra_filtration(h: StructureBialgebra, ladder: FiltrationLadder) -> ValidationReport:
    """Products land in the summed step, coproducts respect the ladder
    degreewise, the antipode preserves steps, and steps are categorical."""
    report = ValidationReport("bialgebra filtration")
    ab = ladder.adapted
    top = len(ladder.steps) - 1
    report.checked += 1
    zero_reps = [r for r in range(ab.dim) if ab.fil_degrees[r] == 0]
    unit_exp = ab.basis.coords(h.unit)
    if any(r not in zero_reps for r in unit_exp):
        report.record("unit-degree", (), "unit", "in bottom step")
    for a in range(ab.dim):
        for b in range(ab.dim):
            if ab.gate_degrees[a] + ab.gate_degrees[b] > h.cap:
                report.skipped += 1
                continue
            report.checked += 1
            target = min(ab.fil_degrees[a] + ab.fil_degrees[b], top)
            prod = ab.basis.coords(h.multiply(ab.rep_vec(a), ab.rep_vec(b)))
            if any(ab.fil_degrees[r] > target for r in prod):
                report.record("product-degree", (a, b), "deg product", f"<= {target}")
    for a in range(ab.dim):
        report.checked += 1
        n = ab.fil_degrees[a]
        cop = ab.basis.coords_pair(h.comultiply(ab.rep_vec(a)))
        if any(ab.fil_degrees[r] + ab.fil_degrees[s] > n for (r, s) in cop):
            report.record("coproduct-degree", (a,), "split degrees", f"sum <= {n}")
        if h.antipode is not None:
            report.checked += 1
            sv = ab.basis.coords(h.apply_antipode(ab.rep_vec(a)))
            if any(ab.fil_degrees[r] > n for r in sv):
                report.record("antipode-degree", (a,), "deg S", f"<= {n}")
    report.checked += 1
    if not ladder.categorical_steps:
        report.record("categorical-steps", (), "steps", "categorical")
    return report


def transported_bialgebra(h: StructureBialgebra, basis: Coordinates, degrees: list[int],
                          prefix: str, comult: list, braiding: GenericBraiding,
                          antipode: tuple | None) -> StructureBialgebra:
    """The graded bialgebra on ``basis.vectors`` with the given coproduct,
    braiding and antipode.  Names, unit, counit and product are transported
    from h: a representative that is a basis vector of h keeps its name,
    the counit and each product keep their degree-homogeneous parts, and
    truncation degrees are those of the representatives in h."""
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

    gates = [h.gate_of(v) for v in reps]
    mult_rows = []
    for a, u in enumerate(reps):
        row = []
        for b, v in enumerate(reps):
            if gates[a] + gates[b] > h.cap:
                row.append({})
                continue
            target = degrees[a] + degrees[b]
            prod = basis.coords(h.multiply(u, v))
            row.append({r: c for r, c in prod.items() if degrees[r] == target})
        mult_rows.append(tuple(row))

    return StructureBialgebra(
        names=tuple(names),
        unit=basis.coords(h.unit),
        mult=tuple(mult_rows),
        counit=tuple(h.counit_of(v) if degrees[r] == 0 else ZERO for r, v in enumerate(reps)),
        comult=tuple(comult),
        braiding=braiding,
        antipode=antipode,
        grading=tuple(degrees),
        truncation=h.truncation,
        trunc_grading=tuple(gates) if h.truncation is not None else None,
    )


@dataclass
class AssociatedGraded:
    algebra: StructureBialgebra
    ladder: FiltrationLadder


def associated_graded(h: StructureBialgebra, ladder: FiltrationLadder) -> AssociatedGraded:
    """The graded bialgebra on the ladder quotients, by structure constants.

    Representatives are the new-pivot rows of each step; every structure
    tensor is the degree-homogeneous part of the expansion of the parent
    operation in the adapted basis.
    """
    report = validate_bialgebra_filtration(h, ladder)
    if not report.ok:
        raise FiltrationError("not a bialgebra filtration:\n" + report.summary())
    ab = ladder.adapted
    d = ab.dim
    degrees = ab.fil_degrees

    comult = []
    for a in range(d):
        n = degrees[a]
        cop = ab.basis.coords_pair(h.comultiply(ab.rep_vec(a)))
        comult.append({(r, s): c for (r, s), c in cop.items()
                       if degrees[r] + degrees[s] == n})

    c = h.braiding.rows
    braid_rows = []
    for a in range(d):
        row = []
        for b in range(d):
            w: dict = {}
            for i, ci in ab.rep_vec(a).items():
                ci_row = c[i]
                for j, cj in ab.rep_vec(b).items():
                    cij = ci * cj
                    for xy, s in ci_row[j].items():
                        v = cij * s
                        prev = w.get(xy)
                        if prev is not None:
                            v = prev + v
                        if v.is_zero():
                            w.pop(xy, None)
                        else:
                            w[xy] = v
            exp = ab.basis.coords_pair(w)
            row.append({(r, s): v for (r, s), v in exp.items()
                        if degrees[r] + degrees[s] == degrees[a] + degrees[b]})
        braid_rows.append(row)

    antipode = None
    if h.antipode is not None:
        antipode = []
        for a in range(d):
            sv = ab.basis.coords(h.apply_antipode(ab.rep_vec(a)))
            antipode.append({r: c for r, c in sv.items() if degrees[r] == degrees[a]})
        antipode = tuple(antipode)

    gr = transported_bialgebra(h, ab.basis, degrees, "f", comult,
                               GenericBraiding(braid_rows), antipode)
    return AssociatedGraded(algebra=gr, ladder=ladder)


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
    ab = ladder.adapted
    top = len(ladder.steps) - 1
    for a in range(ab.dim):
        u = ab.rep_vec(a)
        for b in range(ab.dim):
            if ab.gate_degrees[a] + ab.gate_degrees[b] > h.cap:
                report.skipped += 1
                continue
            report.checked += 1
            m, n = ab.fil_degrees[a], ab.fil_degrees[b]
            target = min(m + n - 1, top)
            v = ab.rep_vec(b)
            bracket: Vec = {}
            for i, cu in u.items():
                row = comm[i]
                for j, cv in v.items():
                    vadd_into(bracket, row[j], cu * cv)
            if any(ab.fil_degrees[r] > target for r in ab.basis.coords(bracket)):
                report.record("commutator-level", (m, n),
                              render_tensor(h, {(k,): v for k, v in bracket.items()}),
                              f"inside step {target}")
    return report
