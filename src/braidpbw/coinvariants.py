"""Coinvariants of the degree-zero projection of a graded bialgebra.

For the associated graded of a relative filtration, the degree-zero part
K splits off through the projection pi.  The coinvariant subalgebra R is
computed both as the image of a |-> a_1 S(pi(a_2)) and as the kernel of
the coinvariance condition; the two must agree exactly.  R carries an
induced coproduct, a K-action by braided conjugation, a K-coaction, and a
braiding assembled from the three, which equals the ambient braiding when
the inclusion of K is central or the projection is cocentral.
:func:`compute_R` returns them as one :class:`CoinvariantAlgebra`, whose
``action`` and ``coaction`` tables are read directly and whose
``inclusion`` rows are R's basis, and refuses an ungraded input or one
without an antipode as an :class:`InputError`;
:func:`check_braiding_collapse` returns the report's ``centrality``
document.  K and the image of pi are spanned by the degree-zero basis
vectors, so both travel as their indices, ``k_indices``, and
:func:`is_central` and :func:`is_cocentral` take a set of basis indices.
"""
from __future__ import annotations

from dataclasses import dataclass

from .braided_space import GenericBraiding, braid_check
from .filtration import expand_products, subspace_from_indices, transported_bialgebra, wedge_ladder
from .findim_hopf import StructureBialgebra, render_tensor
from .linalg import Coordinates, Subspace, echelon, kernel
from .multilinear import Vec, add_term, bilinear, linear, vec_equal
from .reporting import CoinvariantsError, FiltrationError, InputError, SpanError, ValidationReport
from .scalars import ONE


def _require_graded(gr: StructureBialgebra) -> None:
    if gr.grading is None:
        raise InputError("input must be graded (an associated graded bialgebra)")


def projection_pi(gr: StructureBialgebra) -> ValidationReport:
    """Projection onto the degree-zero part along positive degrees, verified
    to be a morphism of bialgebras onto its image."""
    _require_graded(gr)
    report = ValidationReport("degree-zero projection morphism")
    d, gates, mult, comult = gr.dim, gr.gates, gr.mult, gr.comult
    degree_zero = [gr.degree(i) == 0 for i in range(d)]
    for i in range(d):
        for j in range(d):
            if gates[i] + gates[j] > gr.cap:
                report.skipped += 1
                continue
            report.checked += 1
            # pi(e_i e_j) against pi(e_i) pi(e_j), which is e_i e_j when both
            # degrees are zero and 0 otherwise
            lhs = {k: c for k, c in mult[i][j].items() if degree_zero[k] and c}
            rhs = {k: c for k, c in mult[i][j].items() if c} \
                if degree_zero[i] and degree_zero[j] else {}
            if not vec_equal(lhs, rhs):
                report.record("projection-product", (gr.names[i], gr.names[j]),
                              render_tensor(gr, lhs), render_tensor(gr, rhs))
    for i in range(d):
        report.checked += 1
        # (pi x pi) Delta(e_i) against Delta(pi(e_i))
        lhs2 = {(a, b): c for (a, b), c in comult[i].items()
                if degree_zero[a] and degree_zero[b] and c}
        rhs2 = {ab: c for ab, c in comult[i].items() if c} if degree_zero[i] else {}
        if not vec_equal(lhs2, rhs2):
            report.record("projection-coproduct", (gr.names[i],),
                          render_tensor(gr, lhs2), render_tensor(gr, rhs2))
    report.checked += 1
    if not vec_equal({i: c for i, c in gr.unit.items() if degree_zero[i]}, gr.unit):
        report.record("projection-unit", (), "pi(1)", "1")
    return report


def _pi_images(gr: StructureBialgebra) -> list[Vec]:
    """a |-> a_1 S(pi(a_2)) on every basis vector, from the rows: the first
    coproduct leg times the antipode of the degree-zero part of the second."""
    mult, comult, anti = gr.mult, gr.comult, gr.antipode
    degree_zero = [gr.degree(i) == 0 for i in range(gr.dim)]
    images = []
    for i in range(gr.dim):
        out: Vec = {}
        for (a, b), s in comult[i].items():
            if not degree_zero[b]:
                continue
            ma = mult[a]
            for x, t in anti[b].items():
                st = s * t
                for z, u in ma[x].items():
                    v = st * u
                    prev = out.get(z)
                    out[z] = v if prev is None else prev + v
        images.append({z: v for z, v in out.items() if not v.is_zero()})
    return images


def coinvariance_defect(gr: StructureBialgebra, i: int) -> dict:
    """b_1 (x) pi(b_2) - b (x) 1 at the basis vector b = e_i; a vector is
    coinvariant exactly when its combination of these defects vanishes."""
    out = {key: c for key, c in gr.comult[i].items() if gr.degree(key[1]) == 0}
    for u, cu in gr.unit.items():
        add_term(out, (i, u), -cu)
    return out


@dataclass
class CoinvariantAlgebra:
    parent: StructureBialgebra
    algebra: StructureBialgebra          # R with induced coproduct and braiding
    inclusion: Subspace                  # R inside the parent: its RREF rows are R's basis
    k_indices: tuple[int, ...]
    action: tuple[tuple[Vec, ...], ...]  # ad[k][r] over R coordinates
    coaction: tuple[dict, ...]           # delta[r] over (K position, R index)
    braided_reps: list[list[dict]]       # c(row a (x) row b) in parent coordinates
    kernel_is_left_ideal: bool
    coradical_matches_grading: bool


def compute_R(gr: StructureBialgebra) -> CoinvariantAlgebra:
    """Coinvariants with all induced structure, cross-validated.

    Hard errors signal upstream bugs: the two descriptions must coincide,
    induced operations must stay inside R tensor powers, and the assembled
    braiding must satisfy the braid equation.
    """
    _require_graded(gr)
    if gr.antipode is None:
        raise InputError("the graded bialgebra needs an antipode")
    d = gr.dim

    images = _pi_images(gr)
    r_sub = Subspace.span(d, images)
    r_kernel = kernel([coinvariance_defect(gr, i) for i in range(d)])
    if r_sub != r_kernel:
        raise CoinvariantsError(
            "the two descriptions of the coinvariants disagree: "
            f"image dim {r_sub.dim}, kernel dim {r_kernel.dim}")

    pi_kernel = kernel(images)
    k_indices = tuple(gr.degree_indices(0))
    kplus = kernel([{0: gr.counit[k]} for k in k_indices])
    ideal_rows = [linear(gr.mult[j], {k_indices[t]: c for t, c in kv.items()})
                  for kv in kplus.rows for j in range(d)]
    kernel_is_left_ideal = pi_kernel == Subspace.span(d, ideal_rows)

    # the ambient basis is degree-sorted, so RREF rows are homogeneous and
    # pivot order is already (degree, pivot) order
    degrees: list[int] = []
    for vec in r_sub.rows:
        degs = {gr.degree(i) for i in vec}
        if len(degs) != 1:
            raise CoinvariantsError("coinvariant basis vector is not homogeneous")
        degrees.append(degs.pop())
    if degrees != sorted(degrees):
        raise CoinvariantsError("parent basis is not sorted by degree")
    basis = Coordinates(d, r_sub.rows)
    try:
        r_alg, action, coaction, braided = _induced_structure(gr, basis, degrees, k_indices, images)
    except SpanError as exc:
        raise CoinvariantsError("induced operation left the coinvariant subspace") from exc

    return CoinvariantAlgebra(
        parent=gr,
        algebra=r_alg,
        inclusion=r_sub,
        k_indices=k_indices,
        action=action,
        coaction=coaction,
        braided_reps=braided,
        kernel_is_left_ideal=kernel_is_left_ideal,
        coradical_matches_grading=_degree_filtration_is_coradical(r_alg),
    )


def _induced_structure(gr: StructureBialgebra, basis: Coordinates, degrees: list[int],
                       k_indices: tuple[int, ...], images: list[Vec]):
    """R's coproduct (``images``, the a |-> a_1 S(pi(a_2)) image of each
    basis vector, applied to the first coproduct leg), its K-action and
    K-coaction, and the braiding assembled from the three, over the
    coinvariant basis, all composed from the structure rows.  Returns the
    transported algebra R with the action, the coaction and the braided
    pairs of the representatives."""
    reps = basis.vectors
    rdim = len(reps)
    mult, comult, anti, c = gr.mult, gr.comult, gr.antipode, gr.braiding.rows
    k_pos = {k: t for t, k in enumerate(k_indices)}
    comult_r = []
    coaction = []
    for a in range(rdim):  # R's coproduct and the coaction read one expansion of Delta(rep)
        w: dict = {}
        by_left: dict = {}  # the comultiply output has no zero entries
        for (x, y), s in gr.comultiply(reps[a]).items():
            for z, t in images[x].items():
                key, v = (z, y), s * t
                prev = w.get(key)
                w[key] = v if prev is None else prev + v
            if gr.degree(x) == 0:
                by_left.setdefault(x, {})[y] = s
        comult_r.append(basis.coords_pair(w))
        coaction.append({(k_pos[i], rr): cr for i, legvec in by_left.items()
                         for rr, cr in basis.coords(legvec).items()})

    acted: dict = {}  # (k, u) -> braided conjugation of e_u by e_k

    def ad(k: int, u: int) -> Vec:
        """m(m x S)(id x c)(Delta e_k x e_u): multiply the first coproduct leg
        of e_k, braid the second past e_u, close with the antipode."""
        out = acted.get((k, u))
        if out is None:
            out = {}
            for (a, b), s in comult[k].items():
                ma = mult[a]
                for (x, y), t in c[b][u].items():
                    st, sy = s * t, anti[y]
                    for p, w in ma[x].items():
                        stw, mp = st * w, mult[p]
                        for z, v in sy.items():
                            stwv = stw * v
                            for q, g in mp[z].items():
                                term = stwv * g
                                prev = out.get(q)
                                out[q] = term if prev is None else prev + term
            out = acted[(k, u)] = {q: v for q, v in out.items() if not v.is_zero()}
        return out

    action = []
    for k in k_indices:
        row = []
        for b in range(rdim):
            out: Vec = {}
            for u, cu in reps[b].items():
                for q, v in ad(k, u).items():
                    v = cu * v
                    prev = out.get(q)
                    out[q] = v if prev is None else prev + v
            row.append(basis.coords(out))
        action.append(tuple(row))

    for a in range(rdim):
        acc: Vec = {}
        for (kt, rr), s in coaction[a].items():
            v = s * gr.counit[k_indices[kt]]
            prev = acc.get(rr)
            acc[rr] = v if prev is None else prev + v
        if not vec_equal(acc, {a: ONE}):
            raise CoinvariantsError("coaction fails counitality")

    # every representative occurs in its own coaction (counitality), so each
    # braided pair is used; each is formed once
    braided = [[bilinear(c, u, v) for v in reps] for u in reps]

    braid_rows = []
    for a in range(rdim):
        row = []
        for b in range(rdim):
            ambient: dict = {}
            for (kt, rr), s in coaction[a].items():
                k = k_indices[kt]
                for (u, v), t in braided[rr][b].items():
                    st = s * t
                    for au, ca in ad(k, u).items():
                        key, x = (au, v), st * ca
                        prev = ambient.get(key)
                        ambient[key] = x if prev is None else prev + x
            row.append(basis.coords_pair(ambient))
        braid_rows.append(row)
    braiding_r = GenericBraiding(braid_rows)
    if not braid_check(braiding_r):
        raise CoinvariantsError("induced braiding fails the braid equation")

    r_alg = transported_bialgebra(gr, basis, degrees, "r", basis.coords(gr.unit),
                                  expand_products(gr, basis), comult_r, braiding_r, None)
    return r_alg, tuple(action), tuple(coaction), braided


def _degree_filtration_is_coradical(r_alg: StructureBialgebra) -> bool:
    """The filtration induced by the grading of R is its coradical filtration:
    step n of the wedge ladder of the unit line is the span of the basis
    vectors of degree at most n; at step 0 this says that R is connected."""
    try:
        ladder = wedge_ladder(r_alg, Subspace.span(r_alg.dim, [r_alg.unit]))
    except FiltrationError:  # the unit line is not a subcoalgebra of R
        return False
    return ladder.exhaustive and all(
        step == subspace_from_indices(r_alg, [i for i in range(r_alg.dim) if r_alg.degree(i) <= n])
        for n, step in enumerate(ladder.steps))


def is_central(b: StructureBialgebra, indices, comm: list[list[Vec]]) -> bool:
    """The inclusion of the basis vectors e_u at ``indices`` is central:
    multiplication by e_u is invariant under the braiding on both sides,
    e_u e_j = m c(e_u x e_j) and e_j e_u = m c(e_j x e_u), for every basis
    vector e_j below the truncation.  These are the entries [e_u, e_j] and
    [e_j, e_u] of the commutator table ``comm`` of b, stored without zeros."""
    gates, cap = b.gates, b.cap
    return not any(comm[u][j] or comm[j][u] for u in indices for j in range(b.dim)
                   if gates[u] + gates[j] <= cap)


def is_cocentral(a: StructureBialgebra, indices) -> bool:
    """The projection onto the basis vectors at ``indices``, along the
    others, is cocentral: applying it to either coproduct leg is invariant
    under pre-composition with the braiding."""
    comult, c = a.comult, a.braiding.rows
    kept = set(indices)
    for i in range(a.dim):
        cop = comult[i]
        braided: dict = {}
        for (x, y), s in cop.items():
            for xy, t in c[x][y].items():
                v = s * t
                prev = braided.get(xy)
                braided[xy] = v if prev is None else prev + v
        for slot in (0, 1):
            if not vec_equal({xy: s for xy, s in cop.items() if xy[slot] in kept},
                             {xy: s for xy, s in braided.items() if xy[slot] in kept}):
                return False
    return True


def braiding_matches_restriction(coinv: CoinvariantAlgebra) -> bool:
    """Compare the induced braiding on R with the ambient braiding restricted
    to R (x) R, exactly, in ambient coordinates."""
    reps, r_alg = coinv.inclusion.rows, coinv.algebra
    for a in range(r_alg.dim):
        for b in range(r_alg.dim):
            induced: dict = {}
            for (ra, rb), s in r_alg.braiding.rows[a][b].items():
                right = reps[rb].items()
                for i, ci in reps[ra].items():
                    sci = s * ci
                    for j, cj in right:
                        key, v = (i, j), sci * cj
                        prev = induced.get(key)
                        induced[key] = v if prev is None else prev + v
            if not vec_equal(coinv.braided_reps[a][b], induced):
                return False
    return True


def graded_projection_identity(gr: StructureBialgebra) -> bool:
    """(pi x id) c = c (id x pi) on every basis pair, for the degree-zero
    projection pi: the part of c(e_i x e_j) whose first leg has degree zero
    is all of it when e_j has degree zero, and nothing otherwise."""
    c = gr.braiding.rows
    degree_zero = [gr.degree(i) == 0 for i in range(gr.dim)]
    for i in range(gr.dim):
        for j in range(gr.dim):
            cij = c[i][j]
            projected = {xy: s for xy, s in cij.items() if degree_zero[xy[0]]}
            if not vec_equal(projected, cij if degree_zero[j] else {}):
                return False
    return True


def check_braiding_collapse(gr: StructureBialgebra, coinv: CoinvariantAlgebra,
                            comm: list[list[Vec]]) -> dict:
    """When the inclusion of K is central or the projection is cocentral, the
    induced braiding must equal the ambient one; the graded projection
    identity is verified unconditionally.  ``comm`` is the commutator table
    of gr.  K and the image of pi are spanned by the basis vectors at
    ``coinv.k_indices``.  Returns the report's ``centrality`` document."""
    central = is_central(gr, coinv.k_indices, comm)
    cocentral = is_cocentral(gr, coinv.k_indices)
    identity_ok = graded_projection_identity(gr)
    matches = braiding_matches_restriction(coinv)
    hypothesis = central or cocentral
    if hypothesis:
        status = "confirmed" if matches else "violated"
    else:
        status = "vacuous_equal" if matches else "vacuous_differs"
    return {
        "i_central": central,
        "pi_cocentral": cocentral,
        "hypothesis_holds": hypothesis,
        "c_r_equals_c": matches,
        "graded_morphism_identity": identity_ok,
        "status": status,
    }


def bosonization_check(coinv: CoinvariantAlgebra) -> tuple[bool, list[dict]]:
    """The multiplication map from K (x) R onto the parent is a graded linear
    isomorphism, checked degree by degree with exact ranks.

    Under a truncation only representable products are compared: rows are
    restricted to pairs whose truncation degrees fit under the cap, and
    those rows must exactly fill the corresponding graded slice.
    """
    gr, r_alg, reps = coinv.parent, coinv.algebra, coinv.inclusion.rows
    per_degree = []
    ok = True
    for n in range(gr.max_degree() + 1):
        cols = gr.degree_indices(n)
        rows = []
        escaped = False
        for k in coinv.k_indices:
            for r in range(r_alg.dim):
                if r_alg.degree(r) != n or gr.gates[k] + gr.gate_of(reps[r]) > gr.cap:
                    continue
                prod = linear(gr.mult[k], reps[r])
                escaped = escaped or any(gr.degree(i) != n for i in prod)
                rows.append(prod)
        rk = len(echelon(rows)[0])
        bij = (not escaped) and rk == len(cols) and len(rows) == len(cols)
        per_degree.append({"degree": n, "rows": len(rows), "dim": len(cols),
                           "rank": rk, "bijective": bij})
        ok = ok and bij
    return ok, per_degree
