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
``inclusion`` rows are R's basis (R carries gr's braiding object when
their rows are equal), and refuses an ungraded input or one without an
antipode as an :class:`InputError`; :func:`check_braiding_collapse`
reads gr from ``coinv.parent`` and returns the report's ``centrality``
document.  K and the image of pi are spanned by the degree-zero basis
vectors, so both travel as their indices, ``k_indices``, and
:func:`is_central` and :func:`is_cocentral` take a set of basis indices;
:func:`is_central` reads the bialgebra's cached ``commutators``.
Whether R's grading is its coradical filtration is decided from R's unit,
grading and coproduct rows alone, by one rank test; this stage reads
nothing of the run's filtration.  When pi is the counit, as for K = k1, R
is gr without its antipode: this is decided from the images, gr's rows
and the conjugation by K's basis vector, after every cross-check that the
build path makes, and R is then read from gr's rows, with gr's braiding
object, so that the collapse comparison reads one set of rows.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .filtration import expand_products, is_own_graded, transported_bialgebra
from .findim_hopf import StructureBialgebra, render_tensor
from .linalg import Coordinates, Subspace, echelon, kernel
from .multilinear import Vec, add_term, bilinear, linear, vec_equal
from .reporting import CoinvariantsError, InputError, SpanError, ValidationReport
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
    braided_reps: tuple[tuple[dict, ...], ...]  # c(row a (x) row b) in parent coordinates
    kernel_is_left_ideal: bool
    coradical_matches_grading: bool


def compute_R(gr: StructureBialgebra) -> CoinvariantAlgebra:
    """Coinvariants with all induced structure, cross-validated.

    Hard errors signal upstream bugs: the two descriptions must coincide,
    induced operations must stay inside R tensor powers, and the assembled
    braiding must satisfy the braid equation.  A basis that is not sorted
    by degree is refused as an :class:`InputError`.  Whether R's grading is
    its coradical filtration is read from R's own coproduct rows
    (:func:`_degree_filtration_is_coradical`).

    R is gr when pi is the counit, as for K = k1.  Suppose that (i) the
    image of every e_i is e_i, (ii) gr's rows are its own graded tables
    (:func:`~braidpbw.filtration.is_own_graded`: distinct names, no stored
    zero, every term at its slot's degree, nothing past the cap, the
    counit zero in positive degree, the truncation degrees gr's), (iii) the
    terms of Delta(e_a) with a left leg of degree 0 are e_k (x) e_a alone,
    for k the first degree-zero index, and (iv) the conjugation by e_k
    fixes every e_u (:func:`_r_is_gr`).  By (i) R's RREF rows are the e_i,
    so a coordinate is an entry, the value of a table at a basis vector is
    its row, and the degrees are gr's grading.  Field by field, the build
    path then gives gr's: each name is gr's, distinct by (ii); the unit and
    each product are the nonzero entries of gr's, all of them of the
    homogeneous degree by (ii), and a product past the cap is empty in
    both; the counit is gr's in degree 0 and zero above, as is gr's by (ii);
    the coproduct (pi-image (x) id) Delta(e_a) is Delta(e_a) by (i),
    without zeros by (ii); the coaction is e_k (x) e_a by (iii); each braid
    row, the sum of ad(e_k, u) (x) v over the terms u (x) v of
    c(e_a (x) e_b), is c(e_a (x) e_b) by (iii) and (iv), without zeros by
    (ii), so R takes gr's braiding object; the grading is gr's, and the
    truncation and truncation degrees are gr's by (ii).  The braided pairs
    are gr's braid rows and the action the conjugation rows.  So R is gr
    without its antipode, and is read from gr's rows: no product is
    expanded, no coordinates are taken and no braiding is built.  The
    coaction's counitality and the braid equation are checked either way.
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
        raise InputError("parent basis is not sorted by degree")
    ad = {k: _Conjugation(gr, k) for k in k_indices}
    if _r_is_gr(gr, images, degrees, k_indices, ad):
        r_alg = replace(gr, antipode=None)
        action = tuple(tuple(ad[k][u] for u in range(d)) for k in k_indices)
        coaction = tuple({(0, a): ONE} for a in range(d))
        _require_counital(gr, k_indices, coaction)
        braided = gr.braiding.rows
    else:
        basis = Coordinates(r_sub.rows)  # RREF rows: in echelon form
        try:
            r_alg, action, coaction, braided = _induced_structure(gr, basis, degrees, k_indices,
                                                                  images, ad)
        except SpanError as exc:
            raise CoinvariantsError("induced operation left the coinvariant subspace") from exc
    if not r_alg.braiding.satisfies_braid_equation:
        raise CoinvariantsError("induced braiding fails the braid equation")

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


def _r_is_gr(gr: StructureBialgebra, images: list[Vec], degrees: list[int],
             k_indices: tuple[int, ...], ad: dict) -> bool:
    """The conditions (i)-(iv) of :func:`compute_R` under which R is gr,
    read from gr's rows, the images and the conjugation table ``ad``."""
    if not k_indices or any(img != {i: ONE} for i, img in enumerate(images)) \
            or not is_own_graded(gr, degrees):
        return False
    k, zero = k_indices[0], [n == 0 for n in gr.grading]
    return all({(x, y): s for (x, y), s in cop.items() if zero[x]} == {(k, a): ONE}
               for a, cop in enumerate(gr.comult)) \
        and all(ad[k][u] == {u: ONE} for u in range(gr.dim))


def _require_counital(gr: StructureBialgebra, k_indices: tuple[int, ...],
                      coaction) -> None:
    for a, row in enumerate(coaction):
        acc: Vec = {}
        for (kt, rr), s in row.items():
            add_term(acc, rr, s * gr.counit[k_indices[kt]])
        if not vec_equal(acc, {a: ONE}):
            raise CoinvariantsError("coaction fails counitality")


class _Conjugation(dict):
    """u -> m(m x S)(id x c)(Delta e_k x e_u), the braided conjugation of e_u
    by e_k, formed on first use: multiply the first coproduct leg of e_k,
    braid the second past e_u, close with the antipode."""

    def __init__(self, gr: StructureBialgebra, k: int):
        super().__init__()
        self.gr, self.k = gr, k

    def __missing__(self, u: int) -> Vec:
        mult, anti, c = self.gr.mult, self.gr.antipode, self.gr.braiding.rows
        out: Vec = {}
        for (a, b), s in self.gr.comult[self.k].items():
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
        value = self[u] = {q: v for q, v in out.items() if not v.is_zero()}
        return value


def _induced_structure(gr: StructureBialgebra, basis: Coordinates, degrees: list[int],
                       k_indices: tuple[int, ...], images: list[Vec], ad: dict):
    """R's coproduct (``images``, the a |-> a_1 S(pi(a_2)) image of each
    basis vector, applied to the first coproduct leg), its K-action and
    K-coaction, and the braiding assembled from the three, over the
    coinvariant basis, all composed from the structure rows and the
    conjugation tables ``ad``.  Returns the
    transported algebra R with the action, the coaction and the braided
    pairs of the representatives."""
    reps = basis.vectors
    rdim = len(reps)
    comult, c = gr.comult, gr.braiding.rows
    k_pos = {k: t for t, k in enumerate(k_indices)}
    comult_r = []
    coaction = []
    for a in range(rdim):  # R's coproduct and the coaction read one expansion of Delta(rep)
        w: dict = {}
        by_left: dict = {}  # a zero entry, if any, drops out of the coordinates
        for (x, y), s in basis.image(comult, a).items():
            for z, t in images[x].items():
                key, v = (z, y), s * t
                prev = w.get(key)
                w[key] = v if prev is None else prev + v
            if gr.degree(x) == 0:
                by_left.setdefault(x, {})[y] = s
        comult_r.append(basis.coords_pair(w))
        coaction.append({(k_pos[i], rr): cr for i, legvec in by_left.items()
                         for rr, cr in basis.coords(legvec).items()})

    action = tuple(tuple(basis.coords(basis.image(ad[k], b)) for b in range(rdim))
                   for k in k_indices)

    _require_counital(gr, k_indices, coaction)

    # every representative occurs in its own coaction (counitality), so each
    # braided pair is used; each is formed once
    braided = tuple(tuple(bilinear(c, u, v) for v in reps) for u in reps)

    braid_rows = []
    for a in range(rdim):
        row = []
        for b in range(rdim):
            ambient: dict = {}
            for (kt, rr), s in coaction[a].items():
                k = k_indices[kt]
                for (u, v), t in braided[rr][b].items():
                    st = s * t
                    for au, ca in ad[k][u].items():
                        key, x = (au, v), st * ca
                        prev = ambient.get(key)
                        ambient[key] = x if prev is None else prev + x
            row.append(basis.coords_pair(ambient))
        braid_rows.append(row)
    r_alg = transported_bialgebra(gr, basis, degrees, "r", basis.coords(gr.unit),
                                  expand_products(gr, basis), comult_r, braid_rows, None)
    return r_alg, action, tuple(coaction), braided


def _degree_filtration_is_coradical(r_alg: StructureBialgebra) -> bool:
    """R's grading is its coradical filtration: F_n = span{e_i : deg i <= n}
    is the wedge ladder L_0 = k1, L_n = Delta^-1(L_0 (x) R + R (x) L_{n-1}),
    decided from R's unit, grading and coproduct rows.  L = F exactly when
    (a) e_p alone has degree 0 and the unit is a nonzero multiple of it,
    (b) every term e_a (x) e_b of Delta(e_i) has deg a + deg b <= deg i, and
    (c) the top reduced coproducts t_i (the terms with deg a, deg b >= 1 and
    deg a + deg b = deg i) of the e_i with deg i >= 2 are independent.

    If: by (a) and (b) F is a coalgebra filtration with F_0 = L_0, so F_n
    lies in L_n.  Let x in L_n have degree m > n, and L_i = F_i for i < n.
    As L_0 is a subcoalgebra, Delta(L_n) lies in sum_i L_i (x) L_{n-i}, whose
    terms with both degrees >= 1 have total degree <= n; by (b) the terms of
    Delta(x) of total degree m are sum c_i t_i over x's degree-m
    coefficients, not all zero, which (c) forbids to vanish.  Only if:
    L_0 = F_0 is (a), and Delta(F_n) in sum_i F_i (x) F_{n-i} is (b); if
    sum c_i t_i = 0 in one degree m >= 2, x = sum c_i e_i has Delta(x) in
    L_0 (x) R + R (x) F_{m-2} by (b), so x lies in L_{m-1} = F_{m-1} and
    every c_i is 0.  Only the coalgebra axioms are used, so a filtered
    coproduct that is not homogeneous is decided too."""
    deg = r_alg.grading
    bottom = [i for i, n in enumerate(deg) if n == 0]
    if len(bottom) != 1 or [i for i, c in r_alg.unit.items() if not c.is_zero()] != bottom:
        return False
    tops = []
    for i, n in enumerate(deg):
        top = {}
        for (a, b), c in r_alg.comult[i].items():
            if c.is_zero():
                continue
            if deg[a] + deg[b] > n:
                return False
            if deg[a] and deg[b] and deg[a] + deg[b] == n:
                top[(a, b)] = c
        if n >= 2:
            tops.append(top)
    return len(echelon(tops)[0]) == len(tops)


def is_central(b: StructureBialgebra, indices) -> bool:
    """The inclusion of the basis vectors e_u at ``indices`` is central:
    multiplication by e_u is invariant under the braiding on both sides,
    e_u e_j = m c(e_u x e_j) and e_j e_u = m c(e_j x e_u), for every basis
    vector e_j below the truncation.  These are the entries [e_u, e_j] and
    [e_j, e_u] of ``b.commutators``, stored without zeros."""
    gates, cap, comm = b.gates, b.cap, b.commutators
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
    to R (x) R, exactly, in ambient coordinates.  When R carries the
    parent's braiding object on the standard inclusion, as when R is gr,
    both sides are the parent's rows c(e_a (x) e_b), the braided pairs
    being formed from the inclusion rows, and they are equal unread."""
    reps, r_alg = coinv.inclusion.rows, coinv.algebra
    if r_alg.braiding is coinv.parent.braiding and all(
            row == {r: ONE} for r, row in enumerate(reps)):
        return True
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


def check_braiding_collapse(coinv: CoinvariantAlgebra) -> dict:
    """When the inclusion of K is central or the projection is cocentral, the
    induced braiding must equal the ambient one, that of the parent gr; the
    graded projection identity is verified unconditionally.  K and the image
    of pi are spanned by the basis vectors at ``coinv.k_indices``.  Returns
    the report's ``centrality`` document."""
    gr = coinv.parent
    central = is_central(gr, coinv.k_indices)
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
