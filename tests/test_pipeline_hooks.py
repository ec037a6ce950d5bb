"""The pipeline's work per run, and the entry points the benchmark traces."""
import os
import sys
from collections import Counter

from braidpbw import (  # noqa: F401
    braided_space, cli, coinvariants, filtration, findim_hopf, linalg, multilinear)
from braidpbw.corpus import poly_plane, taft3
from braidpbw.filtration import subspace_from_indices
from braidpbw.pipeline import run_pipeline
from braidpbw.scalars import ONE
from reference_checkers import pair_ops

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
        assert findim_hopf.check_commutator_coproduct_all(
            h, h.lowered.compile(findim_hopf.commutator_table(h))).ok
        assert braided_space.braid_check(h.braiding)
        braided_space.is_symmetric(h.braiding)
        k = subspace_from_indices(h, sub)
        assert braided_space.is_categorical(h.braiding, k)
        filtration.wedge(h, k, k)
        gr = filtration.associated_graded(h, filtration.hopf_filtration(h, k))
        coinv = coinvariants.compute_R(gr)
        coinvariants.check_braiding_collapse(gr, coinv, findim_hopf.commutator_table(gr))
        run_pipeline(h, k, 2)
    assert not calls
    # the counting wrappers are live: a slot-operation caller is seen
    multilinear.mul_at(pair_ops(h), {(1, 1): ONE}, 0)
    assert calls


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
