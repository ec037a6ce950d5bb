"""Expansions over the standard basis read the structure rows.

When a change of basis is over the standard basis e_0..e_{m-1}, the
expansions that ``expand_products``, ``associated_graded`` and
``compute_R`` make are the rows the bialgebra already holds.  These tests
hold those expansions to the solve path, entry for entry: the reference
multiplies, comultiplies, applies the antipode and braids the
representatives, and takes coordinates over the same vectors in reverse
order (a monomial basis that is not the standard one), relabelled back.
"""
import dataclasses

from braidpbw.coinvariants import compute_R
from braidpbw.corpus import poly_plane
from braidpbw.filtration import (associated_graded, expand_products, hopf_filtration,
                                 subspace_from_indices, transported_bialgebra)
from braidpbw.linalg import Coordinates
from braidpbw.multilinear import bilinear
from braidpbw.scalars import ZERO
from test_shared_tables import _fields, _pipeline_inputs, same_structure


def _reverse_coordinates(basis):
    """(coords, coords_pair) over basis.vectors, taken through a Coordinates
    over the vectors in reverse order and relabelled r -> n-1-r."""
    n = len(basis.vectors)
    rev = Coordinates(basis.vectors[::-1])
    assert n < 2 or not rev.standard

    def coords(vec):
        return {n - 1 - r: c for r, c in rev.coords(vec).items()}

    def coords_pair(w):
        return {(n - 1 - r, n - 1 - s): c for (r, s), c in rev.coords_pair(w).items()}

    return coords, coords_pair


def _reference_products(h, basis):
    coords, _ = _reverse_coordinates(basis)
    reps = basis.vectors
    return [[None if h.gate_of(u) + h.gate_of(v) > h.cap else coords(h.multiply(u, v))
             for v in reps] for u in reps]


def _reference_gr(ladder):
    """gr H from expansions made by multiplying basis vectors and solving for
    their coordinates; the filtration checks are not repeated."""
    h = ladder.bialgebra
    basis, degrees = ladder.adapted
    coords, coords_pair = _reverse_coordinates(basis)
    reps, c = basis.vectors, h.braiding.rows
    comult = [{(r, s): x for (r, s), x in coords_pair(h.comultiply(u)).items()
               if degrees[r] + degrees[s] == degrees[a]} for a, u in enumerate(reps)]
    antipode = None if h.antipode is None else tuple(
        {r: x for r, x in coords(h.apply_antipode(u)).items() if degrees[r] == degrees[a]}
        for a, u in enumerate(reps))
    braid_rows = [[{(r, s): x for (r, s), x in coords_pair(bilinear(c, u, v)).items()
                    if degrees[r] + degrees[s] == degrees[a] + degrees[b]}
                   for b, v in enumerate(reps)] for a, u in enumerate(reps)]
    gr = transported_bialgebra(h, basis, degrees, "f", coords(h.unit),
                               _reference_products(h, basis), comult, braid_rows, antipode)
    return h if same_structure(h, gr) else gr


def _assert_gr_matches_reference(label, ladder):
    h = ladder.bialgebra
    gr, ref = associated_graded(ladder), _reference_gr(ladder)
    assert (gr is h) == (ref is h), label
    assert (gr.braiding is h.braiding) == (ref.braiding is h.braiding), label
    ours, theirs = _fields(gr), _fields(ref)
    for key in ours:
        assert ours[key] == theirs[key], (label, key)
    return gr


def test_expansions_equal_the_elimination_path():
    standard = []
    for label, h, sub, _ in _pipeline_inputs():
        ladder = hopf_filtration(h, subspace_from_indices(h, sub))
        basis, _ = ladder.adapted
        if basis.standard:
            standard.append(label)
        assert expand_products(h, basis) == _reference_products(h, basis), label
        gr = _assert_gr_matches_reference(label, ladder)
        r_basis = Coordinates(compute_R(gr).inclusion.rows)
        assert expand_products(gr, r_basis) == _reference_products(gr, r_basis), label
    # the y-line's adapted basis is the only one that is not the standard basis
    assert len(standard) == len(_pipeline_inputs()) - 1
    assert "solvable_pair_yline" not in standard


def _on_the_monomial_path(monkeypatch):
    """Make every Coordinates built from here on extend tables linearly and
    solve for coordinates, even over the standard basis."""
    init = Coordinates.__init__

    def monomial(self, *args):
        init(self, *args)
        self.standard = False

    monkeypatch.setattr(Coordinates, "__init__", monomial)


def test_r_equals_r_computed_on_the_monomial_path(monkeypatch):
    grs = [(label, associated_graded(hopf_filtration(h, subspace_from_indices(h, sub))))
           for label, h, sub, _ in _pipeline_inputs()]
    fast = [compute_R(gr) for _, gr in grs]
    _on_the_monomial_path(monkeypatch)
    for (label, gr), ours in zip(grs, fast):
        theirs = compute_R(gr)
        assert _fields(ours.algebra) == _fields(theirs.algebra), label
        assert ours.inclusion == theirs.inclusion, label
        for key in ("k_indices", "action", "coaction", "braided_reps", "kernel_is_left_ideal",
                    "coradical_matches_grading"):
            assert getattr(ours, key) == getattr(theirs, key), (label, key)


def test_an_explicit_zero_in_an_antipode_row_is_dropped():
    """A zero coefficient of S(x) at a key of higher degree is no entry: the
    filtration check passes, and gr H is not the mutant but poly_plane(2)
    itself, entry for entry."""
    h = poly_plane(2)
    x = h.names.index("x")
    higher = next(i for i in range(h.dim) if h.degree(i) > h.degree(x))
    antipode = list(h.antipode)
    antipode[x] = {**antipode[x], higher: ZERO}
    mutant = dataclasses.replace(h, antipode=tuple(antipode))
    ladder = hopf_filtration(mutant, subspace_from_indices(mutant, (0,)))
    assert ladder.adapted[0].standard
    gr = _assert_gr_matches_reference("mutant", ladder)
    assert gr is not mutant and not same_structure(mutant, gr)
    assert same_structure(h, gr) and higher not in gr.antipode[x]
