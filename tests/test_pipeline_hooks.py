"""The pipeline's work per run, and the entry points the benchmark traces."""
import dataclasses
import os
import sys
from collections import Counter

import pytest

from braidpbw import (  # noqa: F401
    braided_space, cli, coinvariants, filtration, findim_hopf, linalg, multilinear, pipeline)
from braidpbw.corpus import poly_plane, solvable_pair, solvable_pair_y_indices, taft3
from braidpbw.filtration import subspace_from_indices
from braidpbw.pipeline import run_pipeline
from braidpbw.scalars import ONE
import reference_checkers
from reference_checkers import pair_ops
from test_checker_oracle import _quantum_plane, four_point, off_flip_mutant
from test_coinvariant_oracle import _r_is_gr_mutants
from test_shared_tables import _pipeline_inputs

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _bindings(fn):
    """(module, name) for every braidpbw module attribute bound to fn."""
    return [(m, name) for mod_name, m in list(sys.modules.items())
            if m is not None and mod_name.split(".")[0] == "braidpbw"
            for name, value in list(vars(m).items()) if value is fn]


def test_symmetry_checked_once_per_braiding(monkeypatch):
    original = braided_space.is_symmetric
    seen = Counter()

    def counting(c):
        seen[id(c)] += 1
        return original(c)

    for module, name in _bindings(original):
        monkeypatch.setattr(module, name, counting)
    h = poly_plane(1)
    run_pipeline(h, subspace_from_indices(h, (0,)), 1)
    assert seen[id(h.braiding)] == 1
    assert set(seen.values()) == {1}


def _counting(monkeypatch, module, name):
    """Replace every binding of module.name by a wrapper that counts its calls
    by the id of the first argument; the arguments are kept alive, so their
    ids stay distinct."""
    original = getattr(module, name)
    seen, kept = Counter(), []

    def counting(first, *args):
        seen[id(first)] += 1
        kept.append(first)
        return original(first, *args)

    for owner, attr in _bindings(original):
        monkeypatch.setattr(owner, attr, counting)
    return seen


@pytest.mark.parametrize("build, sub, runs", [
    (lambda: poly_plane(3), (0,), 1),
    (taft3, (0, 1, 2), 1),
    (lambda: solvable_pair(2), (0,), 2),
], ids=["poly_plane", "taft3", "solvable_pair"])
def test_axioms_and_commutators_once_per_distinct_table(monkeypatch, build, sub, runs):
    """gr H is H for poly_plane and taft3, so H's axiom check and commutator
    table serve both; solvable_pair's gr H has other products and is checked
    on its own."""
    checks = _counting(monkeypatch, pipeline, "check_report")
    tables = _counting(monkeypatch, findim_hopf, "commutator_table")
    h = build()
    run_pipeline(h, subspace_from_indices(h, sub), 2)
    assert sum(checks.values()) == sum(tables.values()) == runs
    assert set(checks.values()) == set(tables.values()) == {1}


def test_r_shares_the_braiding_of_h_when_k_is_the_unit_line():
    h = poly_plane(3)
    gr = filtration.associated_graded(filtration.hopf_filtration(
        h, subspace_from_indices(h, (0,))))
    assert gr is h
    assert coinvariants.compute_R(gr).algebra.braiding is h.braiding


SOLVABLE_PAIRS = pytest.mark.parametrize("sub", [(0,), solvable_pair_y_indices(2)],
                                         ids=["solvable_pair", "solvable_pair_yline"])


@SOLVABLE_PAIRS
def test_gr_keeps_the_braiding_of_h_when_its_rows_are_h(monkeypatch, sub):
    """solvable_pair's gr H differs from H in its products but not in its
    braiding rows, so it carries H's braiding object: symmetry is decided
    once per distinct braiding (H's, shared by gr H and, for K = k1, by R;
    R's own on the y-line; Q's), and H's braid table is compiled once."""
    symmetric = _counting(monkeypatch, braided_space, "is_symmetric")
    original = multilinear.compile_table
    compiled = []

    def compiling(table, ints):
        compiled.append(table)
        return original(table, ints)

    for owner, attr in _bindings(original):
        monkeypatch.setattr(owner, attr, compiling)
    h = solvable_pair(2)
    k = subspace_from_indices(h, sub)
    gr = filtration.associated_graded(filtration.hopf_filtration(h, k))
    assert gr is not h and gr.braiding is h.braiding
    symmetric.clear()
    compiled.clear()
    run_pipeline(h, k, 2)
    assert symmetric[id(h.braiding)] == 1 and set(symmetric.values()) == {1}
    assert sum(symmetric.values()) == (2 if sub == (0,) else 3)
    assert sum(table == h.braiding.rows for table in compiled) == 1


def test_transported_braiding_with_other_rows_keeps_its_own_object():
    """Rows equal to h's give h's braiding; rows that differ in one entry
    give a braiding of their own, whose violation the axiom check reports."""
    h = poly_plane(2)
    ladder = filtration.hopf_filtration(h, subspace_from_indices(h, (0,)))
    basis, degrees = ladder.adapted

    def transported(rows):
        return filtration.transported_bialgebra(
            h, basis, degrees, "f", basis.coords(h.unit), filtration.expand_products(h, basis),
            list(h.comult), rows, h.antipode)

    assert transported(h.braiding.rows).braiding is h.braiding
    x = h.names.index("x")
    rows = [list(row) for row in h.braiding.rows]
    rows[x][x] = {key: s + ONE for key, s in rows[x][x].items()}
    other = transported(rows)
    assert other.braiding is not h.braiding and other.braiding.rows != h.braiding.rows
    assert pipeline.check_report(h)["all_ok"]
    assert not pipeline.check_report(other)["all_ok"]


def test_a_mutant_derives_its_own_commutator_table():
    h = poly_plane(2)
    assert h.commutators is h.commutators  # derived once per object
    assert h.commutators == findim_hopf.commutator_table(h)
    x, y = h.names.index("x"), h.names.index("y")
    mult = [list(row) for row in h.mult]
    mult[x][y] = {**mult[x][y], x: ONE}  # xy = yx + x: no longer commutative
    mutant = dataclasses.replace(h, mult=tuple(tuple(row) for row in mult))
    assert mutant.commutators is not h.commutators
    assert mutant.commutators == findim_hopf.commutator_table(mutant)
    assert mutant.commutators[x][y] == {x: ONE} and h.commutators[x][y] == {}


def test_braid_equation_decided_once_per_braiding(monkeypatch):
    """R's braid check on poly_plane is the check of H's own braiding."""
    seen = _counting(monkeypatch, braided_space, "braid_check")
    plane = poly_plane(3)
    for h, sub in ((plane, (0,)), (taft3(), (0, 1, 2)), (solvable_pair(2), (0,))):
        run_pipeline(h, subspace_from_indices(h, sub), 2)
    assert seen[id(plane.braiding)] == 1
    assert set(seen.values()) == {1}


def test_commutator_coproduct_forms_c_c_minus_id_only_when_not_symmetric(monkeypatch):
    """Every braiding takes the one commutator-table bracket; its
    c c - id term is formed, once per call, only for the off-flip mutant of
    the four-point S(V, c), whose braiding is not symmetric, and never for
    a symmetric braiding, diagonal or not.  Either way the report is the
    slot-operation reference's."""
    calls = Counter()
    original = findim_hopf._braid_defect

    def counting(*args):
        calls["_braid_defect"] += 1
        return original(*args)

    monkeypatch.setattr(findim_hopf, "_braid_defect", counting)
    cases = [(taft3(), True), (_quantum_plane(3, 2), True), (poly_plane(3), True),
             (four_point(), True), (off_flip_mutant(2), False)]
    for h, symmetric in cases:
        calls.clear()
        report = findim_hopf.check_commutator_coproduct_all(h)
        assert report.to_json() == reference_checkers.check_commutator_coproduct_all(h).to_json()
        assert h.braiding.symmetric is symmetric
        assert calls == (Counter() if symmetric else Counter({"_braid_defect": 1}))
    # the witnesses of the c c - id term are compared too
    assert report.violations


def test_subalgebra_categoricity_checked_once(monkeypatch):
    original = braided_space.is_categorical
    seen = Counter()

    def counting(c, x):
        seen[id(x)] += 1
        return original(c, x)

    for module, name in _bindings(original):
        monkeypatch.setattr(module, name, counting)
    h = taft3()
    k = subspace_from_indices(h, (0, 1, 2))
    run_pipeline(h, k, 2)
    # validation checks K; the ladder, which starts at K, does not again
    assert seen[id(k)] == 1


def test_ladder_steps_checked_categorical_once(monkeypatch):
    """K once, in its validation, and each step above K once, in
    associated_graded; no other subspace, so no step of R's wedge ladder."""
    original = braided_space.is_categorical
    seen = Counter()
    kept = []  # the checked subspaces stay alive, so their ids stay distinct

    def counting(c, x):
        seen[id(x)] += 1
        kept.append(x)
        return original(c, x)

    ladders = []
    original_filtration = filtration.hopf_filtration

    def recording(h, k):
        ladders.append(original_filtration(h, k))
        return ladders[-1]

    for module, name in _bindings(original):
        monkeypatch.setattr(module, name, counting)
    for module, name in _bindings(original_filtration):
        monkeypatch.setattr(module, name, recording)
    h = poly_plane(2)
    k = subspace_from_indices(h, (0,))
    run_pipeline(h, k, 2)
    ladder, = ladders
    assert ladder.steps[0] is k and len(ladder.steps) == 3
    assert seen == Counter({id(s): 1 for s in ladder.steps})


def test_one_wedge_ladder_per_run(monkeypatch):
    """A full run builds one wedge ladder, the filtration's, on every input:
    R's coradical test reads R's coproduct rows and builds no ladder."""
    ladders = _counting(monkeypatch, filtration, "wedge_ladder")
    built = {}
    for label, h, sub, degree in _pipeline_inputs():
        ladders.clear()
        run_pipeline(h, subspace_from_indices(h, sub), degree)
        built[label] = sum(ladders.values())
    assert built == {label: 1 for label in built}


def test_axiom_checkers_make_no_slot_operation_calls(monkeypatch):
    """Nor do the categorical-subspace test, the wedge, the coinvariants, the
    braiding-collapse diagnosis, or any other stage of a full pipeline run."""
    calls = Counter()
    for name in ("slot_pair", "slot_merge", "slot_split", "slot_apply", "slot_scalar"):
        original = getattr(multilinear, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module, attr in _bindings(original):
            monkeypatch.setattr(module, attr, counting)
    for h, sub in ((poly_plane(2), (0,)), (taft3(), (0, 1, 2))):
        assert all(r.ok for r in findim_hopf.run_all_checks(h).values())
        assert findim_hopf.check_commutator_coproduct_all(h).ok
        assert braided_space.braid_check(h.braiding)
        braided_space.is_symmetric(h.braiding)
        k = subspace_from_indices(h, sub)
        assert braided_space.is_categorical(h.braiding, k)
        filtration.wedge(h, k, k)
        gr = filtration.associated_graded(filtration.hopf_filtration(h, k))
        coinv = coinvariants.compute_R(gr)
        coinvariants.check_braiding_collapse(coinv)
        run_pipeline(h, k, 2)
    assert not calls
    # the counting wrappers are live: a slot-operation caller is seen
    multilinear.mul_at(pair_ops(h), {(1, 1): ONE}, 0)
    assert calls


def test_expansions_over_the_standard_basis_read_the_rows(monkeypatch):
    """On a standard adapted basis, associated_graded extends no table
    linearly or bilinearly to a vector, and expand_products, for gr H and
    for R, extends no product; the y-line's adapted basis, which is not the
    standard basis, still extends every table."""
    cases = []
    for label, h, sub, _ in _pipeline_inputs():
        ladder = filtration.hopf_filtration(h, subspace_from_indices(h, sub))
        gr = filtration.associated_graded(ladder)
        r_basis = linalg.Coordinates(coinvariants.compute_R(gr).inclusion.rows)
        cases.append((label, ladder, gr, r_basis))
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for fn in (multilinear.bilinear, multilinear.linear):
        for owner, attr in _bindings(fn):
            monkeypatch.setattr(owner, attr, counting(fn.__name__, fn))
    standard = 0
    for label, ladder, gr, r_basis in cases:
        calls.clear()
        filtration.associated_graded(ladder)
        if ladder.adapted[0].standard:
            standard += 1
            assert not calls, label
        else:
            assert label == "solvable_pair_yline"
            assert calls["bilinear"] and calls["linear"], label
        calls.clear()
        filtration.expand_products(gr, r_basis)
        assert (calls["bilinear"] == 0) == r_basis.standard, label
    assert standard == len(cases) - 1
    assert sum(r_basis.standard for *_, r_basis in cases) > 0


def test_gr_is_h_is_read_from_the_rows_in_place(monkeypatch):
    """Where gr H is H, associated_graded takes no coordinates, expands no
    product, transports no bialgebra and builds no braiding; the two
    solvable_pair entries, whose gr H differs from H, still do all four."""
    ladders = [(label, filtration.hopf_filtration(h, subspace_from_indices(h, sub)))
               for label, h, sub, _ in _pipeline_inputs()]
    for _, ladder in ladders:
        ladder.adapted  # built before counting
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for owner, attr in ((filtration, "transported_bialgebra"), (filtration, "expand_products"),
                        (filtration, "GenericBraiding"), (linalg.Coordinates, "coords"),
                        (linalg.Coordinates, "coords_pair")):
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    differ = []
    for label, ladder in ladders:
        calls.clear()
        if filtration.associated_graded(ladder) is ladder.bialgebra:
            assert not calls, label
        else:
            differ.append(label)
            assert set(calls) == {"transported_bialgebra", "expand_products",
                                  "GenericBraiding", "coords", "coords_pair"}, label
    assert differ == ["solvable_pair", "solvable_pair_yline"]


def test_r_is_gr_is_read_from_the_rows(monkeypatch):
    """Where K = k1, compute_R transports no bialgebra, expands no product
    and takes no pair coordinates: R is gr H without its antipode, read
    from gr's rows.  On the other pipeline inputs it makes all three calls.
    braiding_matches_restriction compares no rows exactly where R carries
    gr's braiding on the standard inclusion, which the image mutant of
    poly_plane(2), whose R is built, does too."""
    cases = [(label, len(sub) == 1,
              filtration.associated_graded(filtration.hopf_filtration(
                  h, subspace_from_indices(h, sub))))
             for label, h, sub, _ in _pipeline_inputs()]
    (broken, mutant), = [m for m in _r_is_gr_mutants(poly_plane(2)) if m[0] == "images"]
    cases.append(("poly_plane_2 " + broken, False, mutant))
    calls = Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for owner, attr in ((coinvariants, "transported_bialgebra"),
                        (coinvariants, "expand_products"), (linalg.Coordinates, "coords_pair"),
                        (coinvariants, "vec_equal")):
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    built, shared = [], []
    for label, k1, gr in cases:
        calls.clear()
        coinv = coinvariants.compute_R(gr)
        if k1:
            assert not calls.keys() & {"transported_bialgebra", "expand_products",
                                       "coords_pair"}, label
            assert coinv.algebra.braiding is gr.braiding, label
        else:
            built.append(label)
            assert calls["transported_bialgebra"] and calls["expand_products"] \
                and calls["coords_pair"], label
        calls.clear()
        coinvariants.braiding_matches_restriction(coinv)
        standard = all(row == {r: ONE} for r, row in enumerate(coinv.inclusion.rows))
        identity = coinv.algebra.braiding is gr.braiding and standard
        assert (calls["vec_equal"] == 0) == identity, label
        if identity:
            shared.append(label)
    assert built == ["sweedler_h4", "taft3", "solvable_pair_yline", "taft3_d3",
                     "poly_plane_2 images"]
    assert shared == [label for label, k1, _ in cases if k1] + ["poly_plane_2 images"]


def test_rows_read_in_place_once_per_run(monkeypatch):
    """Where K = k1, associated_graded reads H's rows in place and compute_R
    reads gr's: each bialgebra's rows are scanned once per run, on a fresh
    copy of each such pipeline input, so once in all where gr H is H.
    solvable_pair's gr H is built, and its rows and H's are two scans."""
    scans = _counting(monkeypatch, findim_hopf, "rows_are_graded")
    two = []
    for label, h, sub, degree in _pipeline_inputs():
        if len(sub) != 1:
            continue
        h = dataclasses.replace(h)  # nothing derived yet
        scans.clear()
        run_pipeline(h, subspace_from_indices(h, sub), degree)
        assert set(scans.values()) == {1}, (label, scans)
        assert scans[id(h)] == 1, label
        if len(scans) > 1:
            two.append(label)
    assert two == ["solvable_pair"]
    h = poly_plane(2)
    assert h.own_graded is h.own_graded  # decided once per object
    assert filtration.is_own_graded(h, list(h.grading))
    assert not filtration.is_own_graded(h, [0] * h.dim)  # not H's grading
    x, y = h.names.index("x"), h.names.index("y")
    mult = [list(row) for row in h.mult]
    mult[x][y] = {**mult[x][y], h.dim: ONE}  # a key past the basis
    mutant = dataclasses.replace(h, mult=tuple(tuple(row) for row in mult))
    assert not filtration.is_own_graded(mutant, list(h.grading))


def test_benchmark_tracer_records_linalg_entry_points():
    saved_path = list(sys.path)
    sys.path.insert(0, PERFBENCH)
    try:
        from tracing import Tracer
    finally:
        sys.path[:] = saved_path
    original_rref = linalg.rref
    tracer = Tracer()
    h = poly_plane(1)
    k = subspace_from_indices(h, (0,))
    tracer.install()
    try:
        run_pipeline(h, k, 1)
    finally:
        tracer.remove()
    assert linalg.rref is original_rref
    assert tracer.stats["linalg.rref"][0] > 0
    assert tracer.stats["linalg.coords"][0] > 0
    # the benchmark replays rref on the largest input it captured
    rows = tracer.largest_rref[1]
    red, pivots = linalg.rref(rows)
    assert len(red) == len(pivots) == linalg.rank(rows)


def test_benchmark_outputs_check_under_the_tracer(tmp_path):
    """Every operation of every benchmark workload passes its output check
    while the tracer's wrappers are installed, and removing the tracer puts
    every original binding back."""
    saved_path = list(sys.path)
    sys.path.insert(0, PERFBENCH)
    try:
        from tracing import Tracer
        from workloads import WORKLOADS
    finally:
        sys.path[:] = saved_path
    for name, workload in WORKLOADS.items():
        ops = workload.setup(str(tmp_path / name))
        tracer = Tracer()
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._wrappers]
        tracer.install()
        try:
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
            mismatches = [(op.name, op.check(op.run())) for op in ops]
        finally:
            tracer.remove()
        assert mismatches and all(m is None for _, m in mismatches), (name, mismatches)
        assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals), name
