"""gr H is H exactly when its tables are H's, and then a run checks them once.

``associated_graded`` returns H itself when the transported bialgebra equals
H field for field; ``run_pipeline`` then reuses H's axiom document for gr H.
These tests hold the equality decision to every field, one entry at a time,
and hold the reused document to ``check_report`` run on a distinct copy of
gr H, built by a round trip through the document codec.
"""
import dataclasses

import pytest

from braidpbw.braided_space import FiniteAbelianGroup, GenericBraiding
from braidpbw.corpus import build_cached, corpus_entries, poly_plane, primitively_generated, taft3
from braidpbw.filtration import associated_graded, hopf_filtration, subspace_from_indices
from braidpbw.pipeline import check_report, run_pipeline
from braidpbw.scalars import ONE, root_of_unity
from braidpbw.serialize import bialgebra_from_json, bialgebra_to_json


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
        ("truncation", replace(h, truncation=h.truncation + 1)),
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
    assert h.same_structure(_copy(h)) and _copy(h) is not h
    changes = _one_entry_changes(h)
    assert [name for name, _ in changes] == [
        "names", "grading", "trunc_grading", "truncation", "unit", "counit", "mult",
        "comult", "antipode", "braiding"]
    for name, candidate in changes:
        assert not h.same_structure(candidate), name
        assert not candidate.same_structure(h), name


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
    assert gr is not h and not h.same_structure(gr)
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
