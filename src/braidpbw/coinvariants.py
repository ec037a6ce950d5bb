"""Coinvariants of the degree-zero projection of a graded bialgebra.

For the associated graded of a relative filtration, the degree-zero part
K splits off through the projection pi.  The coinvariant subalgebra R is
computed both as the image of a |-> a_1 S(pi(a_2)) and as the kernel of
the coinvariance condition; the two must agree exactly.  R carries an
induced coproduct, a K-action by braided conjugation, a K-coaction, and a
braiding assembled from the three, which equals the ambient braiding when
the inclusion of K is central or the projection is cocentral.
"""
from __future__ import annotations

from dataclasses import dataclass

from .braided_space import GenericBraiding, braid_check
from .filtration import coradical_filtration_connected, transported_bialgebra
from .findim_hopf import StructureBialgebra, render_tensor
from .linalg import Coordinates, Subspace, echelon, kernel
from .multilinear import (
    Vec,
    braid_at,
    lift,
    mul_at,
    slot_apply,
    slot_split,
    tensor,
    unlift,
    vadd_into,
    vec_equal,
)
from .reporting import CoinvariantsError, FiltrationError, SpanError, ValidationReport
from .scalars import ONE, Scalar


def _require_graded(gr: StructureBialgebra) -> None:
    if gr.grading is None:
        raise CoinvariantsError("input must be graded (an associated graded bialgebra)")


def projection_pi(gr: StructureBialgebra) -> ValidationReport:
    """Projection onto the degree-zero part along positive degrees, verified
    to be a morphism of bialgebras onto its image."""
    _require_graded(gr)
    report = ValidationReport("degree-zero projection morphism")

    def proj(vec: Vec) -> Vec:
        return {i: c for i, c in vec.items() if gr.degree(i) == 0}

    d = gr.dim
    for i in range(d):
        for j in range(d):
            if not gr.gate_ok(i, j):
                report.skipped += 1
                continue
            report.checked += 1
            lhs = proj(gr.multiply(gr.basis_vec(i), gr.basis_vec(j)))
            rhs = gr.multiply(proj(gr.basis_vec(i)), proj(gr.basis_vec(j)))
            if not vec_equal(lhs, rhs):
                report.record("projection-product", (gr.names[i], gr.names[j]),
                              render_tensor(gr, lift(lhs)), render_tensor(gr, lift(rhs)))
    for i in range(d):
        report.checked += 1
        cop = gr.comultiply(gr.basis_vec(i))
        lhs2 = {(a, b): c for (a, b), c in cop.items()
                if gr.degree(a) == 0 and gr.degree(b) == 0}
        rhs2 = gr.comultiply(proj(gr.basis_vec(i)))
        if not vec_equal(lhs2, rhs2):
            report.record("projection-coproduct", (gr.names[i],),
                          render_tensor(gr, lhs2), render_tensor(gr, rhs2))
    report.checked += 1
    if not vec_equal(proj(gr.unit_vec()), gr.unit_vec()):
        report.record("projection-unit", (), "pi(1)", "1")
    return report


def pi_map(gr: StructureBialgebra, vec: Vec) -> Vec:
    """a |-> a_1 S(pi(a_2)): first coproduct leg times the antipode of the
    degree-zero projection of the second leg."""
    if gr.antipode is None:
        raise CoinvariantsError("the graded bialgebra needs an antipode")
    w = slot_split(lift(vec), 0, gr.comul_atom)
    w = {key: c for key, c in w.items() if gr.degree(key[1]) == 0}
    w = slot_apply(w, 1, gr.antipode_atom)
    return unlift(mul_at(gr, w, 0))


def coinvariance_defect(gr: StructureBialgebra, vec: Vec) -> dict:
    """b_1 (x) pi(b_2) - b (x) 1; zero exactly on coinvariants."""
    cop = gr.comultiply(vec)
    out = {key: c for key, c in cop.items() if gr.degree(key[1]) == 0}
    for i, c in vec.items():
        for u, cu in gr.unit_vec().items():
            vadd_into(out, {(i, u): -(c * cu)})
    return out


@dataclass
class CoinvariantAlgebra:
    parent: StructureBialgebra
    algebra: StructureBialgebra          # R with induced coproduct and braiding
    inclusion: Subspace                  # R inside the parent, RREF rows aligned
    reps: list[Vec]                      # parent coordinates, algebra basis order
    k_indices: tuple[int, ...]
    action: tuple[tuple[Vec, ...], ...]  # ad[k][r] over R coordinates
    coaction: tuple[dict, ...]           # delta[r] over (K position, R index)
    kernel_is_left_ideal: bool
    coradical_matches_grading: bool


def ad_eval(gr: StructureBialgebra, kvec: Vec, rvec: Vec) -> Vec:
    """Braided conjugation: multiply the first coproduct leg of k, braid the
    second past the argument, close with the antipode and multiply down."""
    if gr.antipode is None:
        raise CoinvariantsError("the graded bialgebra needs an antipode")
    w = tensor(lift(kvec), lift(rvec))
    w = slot_split(w, 0, gr.comul_atom)
    w = braid_at(gr, w, 1)
    w = slot_apply(w, 2, gr.antipode_atom)
    w = mul_at(gr, w, 0)
    w = mul_at(gr, w, 0)
    return unlift(w)


def compute_R(gr: StructureBialgebra) -> CoinvariantAlgebra:
    """Coinvariants with all induced structure, cross-validated.

    Hard errors signal upstream bugs: the two descriptions must coincide,
    induced operations must stay inside R tensor powers, and the assembled
    braiding must satisfy the braid equation.
    """
    _require_graded(gr)
    if gr.antipode is None:
        raise CoinvariantsError("the graded bialgebra needs an antipode")
    d = gr.dim

    images = [pi_map(gr, gr.basis_vec(i)) for i in range(d)]
    r_image = Subspace.span(d, images, ambient=gr)
    r_kernel = kernel([coinvariance_defect(gr, gr.basis_vec(i)) for i in range(d)], ambient=gr)

    if r_image != r_kernel:
        raise CoinvariantsError(
            "the two descriptions of the coinvariants disagree: "
            f"image dim {r_image.dim}, kernel dim {r_kernel.dim}")
    r_sub = r_image

    pi_kernel = kernel(images)
    k_indices = tuple(gr.degree_indices(0))
    kplus = kernel([{0: gr.counit[k]} for k in k_indices])
    ideal_rows = [gr.multiply(gr.basis_vec(j), {k_indices[t]: c for t, c in kv.items()})
                  for kv in kplus.rows for j in range(d)]
    kernel_is_left_ideal = pi_kernel == Subspace.span(d, ideal_rows)

    # the ambient basis is degree-sorted, so RREF rows are homogeneous and
    # pivot order is already (degree, pivot) order
    reps: list[Vec] = list(r_sub.rows)
    degrees: list[int] = []
    for vec in reps:
        degs = {gr.degree(i) for i in vec}
        if len(degs) != 1:
            raise CoinvariantsError("coinvariant basis vector is not homogeneous")
        degrees.append(degs.pop())
    if degrees != sorted(degrees):
        raise CoinvariantsError("parent basis is not sorted by degree")
    basis = Coordinates(d, reps)
    try:
        r_alg, action, coaction = _induced_structure(gr, basis, degrees, k_indices)
    except SpanError as exc:
        raise CoinvariantsError("induced operation left the coinvariant subspace") from exc

    return CoinvariantAlgebra(
        parent=gr,
        algebra=r_alg,
        inclusion=r_sub,
        reps=reps,
        k_indices=k_indices,
        action=action,
        coaction=coaction,
        kernel_is_left_ideal=kernel_is_left_ideal,
        coradical_matches_grading=_degree_filtration_is_coradical(r_alg),
    )


def _induced_structure(gr: StructureBialgebra, basis: Coordinates, degrees: list[int],
                       k_indices: tuple[int, ...]):
    """R's coproduct through pi_map, its K-action and K-coaction, and the
    braiding assembled from the three, over the coinvariant basis; returns
    the transported algebra R with the action and coaction."""
    reps = basis.vectors
    rdim = len(reps)
    comult = []
    for a in range(rdim):
        w = slot_split(lift(reps[a]), 0, gr.comul_atom)
        w = slot_apply(w, 0, lambda i: pi_map(gr, {i: ONE}))
        comult.append(basis.coords_pair(w))

    action = tuple(
        tuple(basis.coords(ad_eval(gr, {k: ONE}, reps[b])) for b in range(rdim))
        for k in k_indices
    )

    k_pos = {k: t for t, k in enumerate(k_indices)}
    coaction = []
    for a in range(rdim):
        by_left: dict = {}  # the comultiply output has no zero entries
        for (i, j), c in gr.comultiply(reps[a]).items():
            if gr.degree(i) == 0:
                by_left.setdefault(i, {})[j] = c
        coaction.append({(k_pos[i], rr): cr for i, legvec in by_left.items()
                         for rr, cr in basis.coords(legvec).items()})
    for a in range(rdim):
        acc: Vec = {}
        for (kt, rr), c in coaction[a].items():
            v = c * gr.counit[k_indices[kt]]
            prev = acc.get(rr)
            acc[rr] = v if prev is None else prev + v
        if not vec_equal(acc, {a: ONE}):
            raise CoinvariantsError("coaction fails counitality")

    # the braided pair of representatives per (rr, b) and the action of a
    # basis vector of K per (k, u), each evaluated once
    braided: dict = {}
    acted: dict = {}
    braid_rows: dict[tuple[int, int], dict[tuple[int, int], Scalar]] = {}
    for a in range(rdim):
        for b in range(rdim):
            ambient: dict = {}
            for (kt, rr), c in coaction[a].items():
                k = k_indices[kt]
                pair = braided.get((rr, b))
                if pair is None:
                    pair = braided[(rr, b)] = braid_at(
                        gr, tensor(lift(reps[rr]), lift(reps[b])), 0)
                for (u, v), s in pair.items():
                    ku = acted.get((k, u))
                    if ku is None:
                        ku = acted[(k, u)] = ad_eval(gr, {k: ONE}, {u: ONE})
                    cs = c * s
                    for au, ca in ku.items():
                        key, x = (au, v), cs * ca
                        prev = ambient.get(key)
                        if prev is not None:
                            x = prev + x
                        if x.is_zero():
                            ambient.pop(key, None)
                        else:
                            ambient[key] = x
            entry = basis.coords_pair(ambient)
            if entry:
                braid_rows[(a, b)] = entry
    braiding_r = GenericBraiding(rdim, braid_rows)
    if not braid_check(braiding_r):
        raise CoinvariantsError("induced braiding fails the braid equation")

    r_alg = transported_bialgebra(gr, basis, degrees, "r", comult, braiding_r, None)
    return r_alg, action, tuple(coaction)


def _degree_filtration_is_coradical(r_alg: StructureBialgebra) -> bool:
    """The filtration induced by the grading of R is its coradical filtration."""
    try:
        ladder = coradical_filtration_connected(r_alg)
    except FiltrationError:
        return False
    if not ladder.exhaustive:
        return False
    for n, step in enumerate(ladder.steps):
        expected = sorted(i for i in range(r_alg.dim) if r_alg.degree(i) <= n)
        if step.coordinate_columns() is None or sorted(step.pivots) != expected:
            return False
    return True


def ad_action(coinv: CoinvariantAlgebra, kvec: Vec, rvec: Vec) -> Vec:
    """The stored action tensor, evaluated bilinearly over R coordinates."""
    out: Vec = {}
    k_pos = {k: t for t, k in enumerate(coinv.k_indices)}
    for k, ck in kvec.items():
        t = k_pos.get(k)
        if t is None:
            raise CoinvariantsError("action argument is not a K basis index")
        for r, cr in rvec.items():
            vadd_into(out, coinv.action[t][r], ck * cr)
    return out


def coaction_map(coinv: CoinvariantAlgebra, rvec: Vec) -> dict:
    out: dict = {}
    for r, c in rvec.items():
        vadd_into(out, coinv.coaction[r], c)
    return out


def is_central(b: StructureBialgebra, f_rows: list[Vec]) -> bool:
    """Multiplication through the map is invariant under the braiding, on
    both sides."""
    for u in f_rows:
        if not u:
            continue
        for j in range(b.dim):
            if b.truncation is not None and b.gate_of(u) + b.gate_degree(j) > b.truncation:
                continue
            ev = b.basis_vec(j)
            if not vec_equal(b.multiply(u, ev), b.opposite_multiply(u, ev)):
                return False
            if not vec_equal(b.multiply(ev, u), b.opposite_multiply(ev, u)):
                return False
    return True


def is_cocentral(a: StructureBialgebra, f_rows: list[Vec]) -> bool:
    """Applying the map to either coproduct leg is invariant under
    pre-composition with the braiding."""
    for i in range(a.dim):
        cop = a.comultiply(a.basis_vec(i))
        braided = braid_at(a, cop, 0)
        for slot in (0, 1):
            lhs = slot_apply(cop, slot, lambda t: f_rows[t])
            rhs = slot_apply(braided, slot, lambda t: f_rows[t])
            if not vec_equal(lhs, rhs):
                return False
    return True


@dataclass
class CollapseReport:
    i_central: bool
    pi_cocentral: bool
    hypothesis_holds: bool
    braiding_matches: bool
    graded_morphism_identity: bool
    status: str

    def to_json(self) -> dict:
        return {
            "i_central": self.i_central,
            "pi_cocentral": self.pi_cocentral,
            "hypothesis_holds": self.hypothesis_holds,
            "c_r_equals_c": self.braiding_matches,
            "graded_morphism_identity": self.graded_morphism_identity,
            "status": self.status,
        }


def braiding_matches_restriction(coinv: CoinvariantAlgebra) -> bool:
    """Compare the induced braiding on R with the ambient braiding restricted
    to R (x) R, exactly, in ambient coordinates."""
    gr = coinv.parent
    r_alg = coinv.algebra
    for a in range(r_alg.dim):
        for b in range(r_alg.dim):
            ambient = braid_at(gr, tensor(lift(coinv.reps[a]), lift(coinv.reps[b])), 0)
            induced: dict = {}
            for (ra, rb), c in r_alg.braid_pair(a, b).items():
                vadd_into(induced, tensor(lift(coinv.reps[ra]), lift(coinv.reps[rb])), c)
            if not vec_equal(ambient, induced):
                return False
    return True


def check_braiding_collapse(gr: StructureBialgebra, coinv: CoinvariantAlgebra) -> CollapseReport:
    """When the inclusion of K is central or the projection is cocentral, the
    induced braiding must equal the ambient one; the graded projection
    identity is verified unconditionally."""
    k_rows: list[Vec] = [{i: ONE} for i in coinv.k_indices]
    pi_rows: list[Vec] = [({i: ONE} if gr.degree(i) == 0 else {}) for i in range(gr.dim)]
    central = is_central(gr, k_rows)
    cocentral = is_cocentral(gr, pi_rows)

    identity_ok = True
    for i in range(gr.dim):
        for j in range(gr.dim):
            w = {(i, j): ONE}
            lhs = slot_apply(braid_at(gr, w, 0), 0, lambda t: pi_rows[t])
            rhs = braid_at(gr, slot_apply(w, 1, lambda t: pi_rows[t]), 0)
            if not vec_equal(lhs, rhs):
                identity_ok = False
                break
        if not identity_ok:
            break

    matches = braiding_matches_restriction(coinv)
    hypothesis = central or cocentral
    if hypothesis:
        status = "confirmed" if matches else "violated"
    else:
        status = "vacuous_equal" if matches else "vacuous_differs"
    return CollapseReport(
        i_central=central,
        pi_cocentral=cocentral,
        hypothesis_holds=hypothesis,
        braiding_matches=matches,
        graded_morphism_identity=identity_ok,
        status=status,
    )


def bosonization_check(coinv: CoinvariantAlgebra) -> tuple[bool, list[dict]]:
    """The multiplication map from K (x) R onto the parent is a graded linear
    isomorphism, checked degree by degree with exact ranks.

    Under a truncation only representable products are compared: rows are
    restricted to pairs whose truncation degrees fit under the cap, and
    those rows must exactly fill the corresponding graded slice.
    """
    gr = coinv.parent
    r_alg = coinv.algebra
    per_degree = []
    ok = True
    for n in range(gr.max_degree() + 1):
        cols = gr.degree_indices(n)
        rows = []
        escaped = False
        for k in coinv.k_indices:
            for r in range(r_alg.dim):
                if r_alg.degree(r) != n:
                    continue
                if gr.truncation is not None and gr.gate_degree(k) + gr.gate_of(coinv.reps[r]) > gr.truncation:
                    continue
                prod = gr.multiply(gr.basis_vec(k), coinv.reps[r])
                escaped = escaped or any(gr.degree(i) != n for i in prod)
                rows.append(prod)
        rk = len(echelon(rows)[0])
        bij = (not escaped) and rk == len(cols) and len(rows) == len(cols)
        per_degree.append({"degree": n, "rows": len(rows), "dim": len(cols),
                           "rank": rk, "bijective": bij})
        ok = ok and bij
    return ok, per_degree
