"""gr H is H exactly when its tables are H's, and then a run checks them once.

``associated_graded`` returns H itself when gr H equals H field for field,
which it decides in one place: on the standard basis, from H's rows in
place, without building gr H; any other ladder builds gr H.
``run_pipeline`` then reuses H's axiom document for gr H.  These tests keep
the field-for-field comparison, :func:`same_structure`, as the reference,
held to every field one entry at a time; hold the in-place decision to it,
applied to the built gr H, on every pipeline input and on mutants of
``poly_plane(2)`` and ``taft3``, result for result and error text for error
text; and hold the reused document to ``check_report`` run on a distinct
copy of gr H, built by a round trip through the document codec.
"""
import dataclasses

import pytest

from braidpbw import filtration
from braidpbw.braided_space import FiniteAbelianGroup, GenericBraiding
from braidpbw.corpus import build_cached, corpus_entries, poly_plane, primitively_generated, taft3
from braidpbw.filtration import (associated_graded, hopf_filtration, subspace_from_indices,
                                 wedge_ladder)
from braidpbw.pipeline import check_report, run_pipeline
from braidpbw.reporting import FiltrationError
from braidpbw.scalars import ONE, ZERO, root_of_unity
from braidpbw.serialize import bialgebra_from_json, bialgebra_to_json

FIELDS = ("names", "unit", "mult", "counit", "comult", "antipode", "grading", "truncation",
          "trunc_grading", "gates", "cap")


def _fields(b):
    """Every field of a bialgebra, with its braiding's rows."""
    return {**{key: getattr(b, key) for key in FIELDS}, "braiding": b.braiding.rows}


def same_structure(a, b):
    """The reference for "gr H is H": the same names, grading, truncation,
    unit, counit, product, coproduct, antipode and braiding rows, entry for
    entry under exact equality."""
    return _fields(a) == _fields(b)


def _copy(h):
    """A distinct bialgebra equal to h, entry for entry."""
    return bialgebra_from_json(bialgebra_to_json(h))


def _bumped(vec):
    """vec with the coefficient of its first key raised by one."""
    key = next(iter(vec))
    return {**vec, key: vec[key] + ONE}


def _at(table, i, value):
    """The tuple table with entry i replaced by value."""
    return table[:i] + (value,) + table[i + 1:]


def _one_entry_changes(h):
    """(field, candidate) pairs: h with exactly one entry of one field changed."""
    mult, comult, anti, rows = h.mult, h.comult, h.antipode, h.braiding.rows
    a = next(i for i in range(h.dim) if h.grading[i] > 0)  # a generator: all tables are non-empty
    replace = dataclasses.replace
    return [
        ("names", replace(h, names=_at(h.names, a, "z"))),
        ("grading", replace(h, grading=_at(h.grading, a, h.grading[a] + 1))),
        ("trunc_grading", replace(h, trunc_grading=_at(h.trunc_grading, a, h.gates[a] + 1))),
        ("truncation", replace(h, truncation=1 if h.truncation is None else h.truncation + 1)),
        ("unit", replace(h, unit=_bumped(h.unit))),
        ("counit", replace(h, counit=_at(h.counit, 0, h.counit[0] + ONE))),
        ("mult", replace(h, mult=_at(mult, a, _at(mult[a], 0, _bumped(mult[a][0]))))),
        ("comult", replace(h, comult=_at(comult, a, _bumped(comult[a])))),
        ("antipode", replace(h, antipode=_at(anti, a, _bumped(anti[a])))),
        ("braiding", replace(h, braiding=GenericBraiding(
            _at(rows, a, _at(rows[a], a, _bumped(rows[a][a])))))),
    ]


def test_same_structure_is_exact_equality_of_every_field():
    h = poly_plane(2)
    assert same_structure(h, _copy(h)) and _copy(h) is not h
    changes = _one_entry_changes(h)
    assert [name for name, _ in changes] == [
        "names", "grading", "trunc_grading", "truncation", "unit", "counit", "mult",
        "comult", "antipode", "braiding"]
    for name, candidate in changes:
        assert not same_structure(h, candidate), name
        assert not same_structure(candidate, h), name


def _solvable_pair_yline():
    entry, = (e for e in corpus_entries() if e.name == "solvable_pair_yline")
    return build_cached(entry.name), entry.sub_indices


@pytest.mark.parametrize("case", ["solvable_pair", "solvable_pair_yline", "ungraded_taft3"])
def test_inputs_that_differ_from_gr_take_the_full_path(case):
    if case == "solvable_pair":
        h, sub = build_cached(case), (0,)
    elif case == "solvable_pair_yline":
        h, sub = _solvable_pair_yline()
    else:
        h, sub = dataclasses.replace(taft3(), grading=None, trunc_grading=None), (0, 1, 2)
    gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, sub)))
    assert gr is not h and not same_structure(h, gr)
    assert run_pipeline(h, subspace_from_indices(h, sub), 2)["gr"]["axioms"] == \
        check_report(_copy(gr))


def _quantum_plane(n, truncation):
    zeta = root_of_unity(n)
    return primitively_generated(["x", "y"], FiniteAbelianGroup((n, n)),
                                 ((ONE, zeta), (zeta.inverse(), ONE)), [(1, 0), (0, 1)],
                                 truncation)


def _pipeline_inputs():
    """(label, h, K indices, degree): every corpus entry with a subalgebra,
    poly_plane at T = 1, 2, 3, and taft3 with the quantum planes over
    Q(zeta_N), N = 3, 4, 12, at T = 2."""
    cases = [(e.name, build_cached(e.name), e.sub_indices, e.degree)
             for e in corpus_entries() if e.sub_indices is not None]
    cases += [(f"poly_plane_T{t}", poly_plane(t), (0,), t) for t in (1, 2, 3)]
    cases += [("taft3_d3", taft3(), (0, 1, 2), 3)]
    cases += [(f"quantum_plane_N{n}", _quantum_plane(n, 2), (0,), 2) for n in (3, 4, 12)]
    return cases


def test_gr_axioms_match_a_fresh_check_of_a_distinct_copy():
    cases, shared = _pipeline_inputs(), 0
    for label, h, sub, degree in cases:
        k = subspace_from_indices(h, sub)
        report = run_pipeline(h, k, degree)
        gr = associated_graded(hopf_filtration(h, k))
        copy = _copy(gr)
        assert copy is not gr and copy is not h, label
        assert report["gr"]["axioms"] == check_report(copy), label
        # the reused document is a copy: the two blocks do not alias
        assert report["gr"]["axioms"] is not report["axioms"], label
        for name, block in report["axioms"].items():
            if isinstance(block, dict):
                assert report["gr"]["axioms"][name] is not block, (label, name)
        shared += gr is h
    # every input here but the two solvable_pair entries is its own gr H
    assert shared == len(cases) - 2


def _built(monkeypatch, ladder):
    """associated_graded on the build path, which expands every table and
    returns the gr H it transports."""
    with monkeypatch.context() as m:
        m.setattr(filtration, "is_own_graded", lambda h, degrees: False)
        return associated_graded(ladder)


def test_rows_read_in_place_decide_gr_is_h_as_the_built_gr_does(monkeypatch):
    """On every pipeline input, H's rows read in place say gr H is H exactly
    when the built gr H equals H field for field; associated_graded then
    returns H, and otherwise a gr H equal to the built one."""
    for label, h, sub, _ in _pipeline_inputs():
        ladder = hopf_filtration(h, subspace_from_indices(h, sub))
        basis, degrees = ladder.adapted
        ours, built = associated_graded(ladder), _built(monkeypatch, ladder)
        assert built is not h, label
        assert (ours is h) == same_structure(h, built), label
        assert _fields(ours) == _fields(built), label
        if basis.standard:
            assert filtration.is_own_graded(h, degrees) == same_structure(h, built), label
        else:
            assert label == "solvable_pair_yline" and ours is not h


def _reversed_basis(h):
    """h on its basis in reverse order: index i becomes d-1-i."""
    d = h.dim

    def vec(v):
        return {d - 1 - k: c for k, c in v.items()}

    def pair(w):
        return {(d - 1 - r, d - 1 - s): c for (r, s), c in w.items()}

    return dataclasses.replace(
        h, names=h.names[::-1], unit=vec(h.unit), counit=h.counit[::-1],
        mult=tuple(tuple(map(vec, row[::-1])) for row in h.mult[::-1]),
        comult=tuple(map(pair, h.comult[::-1])), antipode=tuple(map(vec, h.antipode[::-1])),
        braiding=GenericBraiding(tuple(tuple(map(pair, row[::-1]))
                                       for row in h.braiding.rows[::-1])),
        grading=h.grading[::-1], trunc_grading=h.trunc_grading[::-1])


def _mutants(h, sub):
    """(name, mutant, K indices): the one-entry changes of h, and changes
    that the in-place reading must tell from H: a term of lower or higher
    degree, an explicit zero at the slot's degree, a nonzero product past
    the cap, a nonzero counit in positive degree, repeated names, a
    homogeneous braid term that makes the steps not categorical, and a
    permuted basis."""
    x, y = [i for i in range(h.dim) if h.grading[i] == 1][:2]
    top = h.grading.index(max(h.grading))
    mult, comult, anti, rows = h.mult, h.comult, h.antipode, h.braiding.rows
    replace = dataclasses.replace

    def product(a, b, extra):
        return replace(h, mult=_at(mult, a, _at(mult[a], b, {**mult[a][b], **extra})))

    def braid(a, b, extra):
        return replace(h, braiding=GenericBraiding(_at(rows, a, _at(rows[a], b, {**rows[a][b],
                                                                                  **extra}))))

    def terms(c, key):
        """A term c at key, or at (key, 0), in a slot of degree 1 of each table."""
        return [
            ("mult", product(0, x, {key: c})),
            ("comult", replace(h, comult=_at(comult, x, {**comult[x], (key, 0): c}))),
            ("antipode", replace(h, antipode=_at(anti, x, {**anti[x], key: c}))),
            ("braiding", braid(0, x, {(key, 0): c})),
        ]

    cases = [(name, m) for name, m in _one_entry_changes(h)]
    cases += [(f"lower_{name}", m) for name, m in terms(ONE, 0)]
    cases += [(f"higher_{name}", m) for name, m in terms(ONE, top)]
    cases += [(f"zero_{name}", m) for name, m in terms(ZERO, y)]
    cases += [("zero_unit", replace(h, unit={**h.unit, top: ZERO})),
              ("positive_counit", replace(h, counit=_at(h.counit, x, ONE))),
              ("repeated_names", replace(h, names=_at(h.names, x, h.names[0]))),
              ("uncategorical_braiding", braid(top, x, {(top, x): ONE}))]
    past_cap = [(a, b) for a in range(h.dim) for b in range(h.dim)
                if h.gates[a] + h.gates[b] > h.cap]
    if past_cap:
        a, b = past_cap[0]
        assert not mult[a][b]
        cases.append(("past_cap", product(a, b, {0: ONE})))
    cases = [(name, m, sub) for name, m in cases]
    return cases + [("permuted", _reversed_basis(h), tuple(h.dim - 1 - i for i in sub))]


def _outcome(ladder):
    """associated_graded of a ladder: ("h" or "gr", gr's fields), or the
    error text."""
    try:
        gr = associated_graded(ladder)
    except FiltrationError as exc:
        return "error", str(exc)
    return "h" if gr is ladder.bialgebra else "gr", _fields(gr)


@pytest.mark.parametrize("build, sub", [(lambda: poly_plane(2), (0,)), (taft3, (0, 1, 2))],
                         ids=["poly_plane_2", "taft3"])
def test_rows_read_in_place_agree_with_the_build_path_on_mutants(monkeypatch, build, sub):
    """Each mutant's wedge ladder gives the same gr H, or the same
    FiltrationError text, whether its rows are read in place or expanded;
    where gr H is built, its rows read in place say gr H is H exactly when
    the built gr H equals the mutant field for field."""
    kinds = set()
    for name, mutant, k in _mutants(build(), sub):
        ladder = wedge_ladder(mutant, subspace_from_indices(mutant, k))
        ours = _outcome(ladder)
        with monkeypatch.context() as m:
            m.setattr(filtration, "is_own_graded", lambda h, degrees: False)
            built = _outcome(ladder)
        assert built[0] != "h" and built[1] == ours[1], name
        basis, degrees = ladder.adapted
        if ours[0] != "error" and basis.standard:
            assert filtration.is_own_graded(mutant, degrees) == (built[1] == _fields(mutant)), name
        assert (ours[0] == "h") == (built[1] == _fields(mutant)), name
        kinds.add(ours[0])
        if name == "permuted":
            assert not basis.standard
        if name.startswith(("lower_", "zero_", "positive_", "repeated", "past_cap", "permuted")):
            assert ours[0] == "gr", name
        if name.startswith(("higher_", "uncategorical_")):
            assert ours[0] == "error", name
    assert kinds == {"h", "gr", "error"}
