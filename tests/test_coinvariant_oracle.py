"""The coinvariant stages, the braiding-collapse diagnosis and the
categorical-subspace test against the slot-operation reference in
``reference_checkers``: identical coinvariant subspaces, R structure
constants, K-actions, K-coactions, braided pairs, collapse reports and
verdicts, or the same error, on the corpus entries, on truncated and
associated-graded inputs, and on mutants with one entry of the braiding or
of the coproduct perturbed."""
import inspect
import random
from collections import Counter

import pytest

import reference_checkers as ref
from braidpbw import braided_space, coinvariants, findim_hopf
from braidpbw.braided_space import GenericBraiding
from braidpbw.corpus import build_cached, corpus_entries, solvable_pair_y_indices
from braidpbw.filtration import associated_graded, hopf_filtration, subspace_from_indices
from braidpbw.linalg import Subspace
from braidpbw.reporting import CoinvariantsError
from braidpbw.scalars import ONE, Scalar
from test_checker_oracle import _perturb, four_point
from test_findim_hopf import _mutate


def _sub_indices(entry, truncation):
    if entry.name == "solvable_pair_yline" and truncation is not None:
        return tuple(sorted(solvable_pair_y_indices(truncation)))
    return entry.sub_indices


def _inputs():
    """(label, bialgebra, subalgebra indices or None): every corpus entry,
    the truncated ones also at T = 1..3, the associated graded of every
    entry with a subalgebra (at T = 1..3 for the truncated ones), and S(V, c)
    of the four-point solution at T = 2, whose braiding is not diagonal."""
    for entry in corpus_entries():
        truncated = "truncation" in inspect.signature(entry.build).parameters
        for t in ((None, 1, 2, 3) if truncated else (None,)):
            h = build_cached(entry.name) if t is None else entry.build(t)
            label = entry.name if t is None else f"{entry.name}@T={t}"
            sub = _sub_indices(entry, t)
            yield label, h, sub
            if sub is not None and (t is not None or not truncated):
                gr = associated_graded(h, hopf_filtration(h, subspace_from_indices(h, sub)))
                yield f"gr {label}", gr, tuple(gr.degree_indices(0))
    yield "four_point@T=2", four_point(), (0,)


def _structure(r_alg) -> tuple:
    return (r_alg.names, r_alg.unit, r_alg.mult, r_alg.counit, r_alg.comult,
            r_alg.braiding.rows, r_alg.grading, r_alg.truncation, r_alg.trunc_grading)


def _engine_R(gr):
    try:
        coinv = coinvariants.compute_R(gr)
    except CoinvariantsError as exc:
        return ("error", str(exc)), None
    return (coinv.inclusion.rows, coinv.k_indices, _structure(coinv.algebra), coinv.action,
            coinv.coaction, coinv.braided_reps), coinv


def _reference_R(gr):
    try:
        out = ref.compute_R(gr)
    except CoinvariantsError as exc:
        return ("error", str(exc))
    return (out["inclusion"].rows, out["k_indices"], _structure(out["algebra"]), out["action"],
            out["coaction"], out["braided_reps"])


def _subspaces(rng, h, sub):
    """Subspaces to test for categoricity: the subalgebra, coordinate
    subspaces, and random spans of one or two vectors."""
    d = h.dim
    out = [Subspace.span(d, [{i: ONE} for i in range(d)]), Subspace.span(d, [])]
    if sub is not None:
        out.append(subspace_from_indices(h, sub))
    for _ in range(3):
        out.append(subspace_from_indices(h, rng.sample(range(d), rng.randint(1, d))))
        vecs = [{i: Scalar.from_rational(rng.choice((1, -1, 2))) for i in rng.sample(range(d), 2)}
                for _ in range(rng.randint(1, 2))] if d > 1 else [{0: ONE}]
        out.append(Subspace.span(d, vecs))
    return out


def _proper_subset(label, d) -> list[int]:
    """A nonempty proper subset of range(d) (empty when d < 2), drawn from a
    generator seeded by the label, so that the draws of the shared one stay
    as they are."""
    rng = random.Random(label)
    return sorted(rng.sample(range(d), rng.randint(1, d - 1))) if d > 1 else []


def _compare_index_sets(label, h, comm, seen: Counter):
    """is_central and is_cocentral on all indices, on a random proper subset
    and, for graded h, on the degree-zero indices.  The reference takes
    general rows: e_i at each index of the set, zero elsewhere."""
    subsets = {"all": range(h.dim), "subset": _proper_subset(label, h.dim)}
    if h.grading is not None and h.antipode is not None:
        subsets["degree zero"] = h.degree_indices(0)
    for kind, indices in subsets.items():
        kept = set(indices)
        rows = [({i: ONE} if i in kept else {}) for i in range(h.dim)]
        central = coinvariants.is_central(h, indices, comm)
        cocentral = coinvariants.is_cocentral(h, indices)
        assert central == ref.is_central(h, rows), f"{label}/{kind}/is_central"
        assert cocentral == ref.is_cocentral(h, rows), f"{label}/{kind}/is_cocentral"
        seen[f"{kind} central {central}"] += 1
        seen[f"{kind} cocentral {cocentral}"] += 1


def _compare(label, h, sub, rng, seen: Counter):
    """Assert engine and reference agree on h; tally what was exercised."""
    for x in _subspaces(rng, h, sub):
        got = braided_space.is_categorical(h.braiding, x)
        assert got == ref.is_categorical(h.braiding, x), f"{label}/is_categorical"
        seen[f"categorical {got}"] += 1
    comm = findim_hopf.commutator_table(h)
    _compare_index_sets(label, h, comm, seen)
    if h.grading is None or h.antipode is None:
        return
    identity = coinvariants.graded_projection_identity(h)
    assert identity == ref.graded_projection_identity(h), label
    seen[f"identity {identity}"] += 1
    assert coinvariants._pi_images(h) == [ref.pi_map(h, {i: ONE}) for i in range(h.dim)], label

    engine, coinv = _engine_R(h)
    assert engine == _reference_R(h), f"{label}/compute_R"
    if coinv is None:
        seen["R error"] += 1
        return
    seen["R"] += 1
    report = coinvariants.check_braiding_collapse(h, coinv, comm)
    assert report == ref.check_braiding_collapse(h, coinv), f"{label}/collapse"
    assert coinvariants.braiding_matches_restriction(coinv) == ref.braiding_matches_restriction(coinv)
    seen[report["status"]] += 1


def test_coinvariant_stages_match_reference_on_corpus():
    rng = random.Random(0)
    seen = Counter()
    for label, h, sub in _inputs():
        _compare(label, h, sub, rng, seen)
    # both answers of every predicate, on every kind of index set too, and
    # both collapse outcomes, were compared
    assert seen["categorical True"] and seen["categorical False"], seen
    assert all(seen[f"{kind} {pred} {answer}"] for kind in ("all", "subset", "degree zero")
               for pred in ("central", "cocentral") for answer in (True, False)), seen
    assert seen["confirmed"] and seen["vacuous_differs"], seen


def _mutant(rng, h):
    d = h.dim
    if rng.random() < 0.5:
        i, j = rng.randrange(d), rng.randrange(d)
        rows = [list(row) for row in h.braiding.rows]
        rows[i][j] = _perturb(rng, rows[i][j], (rng.randrange(d), rng.randrange(d)))
        return "braiding", _mutate(h, braiding=GenericBraiding(rows))
    i = rng.randrange(d)
    comult = list(h.comult)
    comult[i] = _perturb(rng, comult[i], (rng.randrange(d), rng.randrange(d)))
    return "comult", _mutate(h, comult=tuple(comult))


@pytest.mark.parametrize("seed", range(4))
def test_coinvariant_stages_match_reference_on_mutants(seed):
    rng = random.Random(100 + seed)
    bases = [(label, h, sub) for label, h, sub in _inputs()
             if label.startswith("gr ") and h.dim <= 12]
    seen = Counter()
    for n in range(16):
        label, h, sub = bases[(seed + n) % len(bases)]
        kind, mutant = _mutant(rng, h)
        _compare(f"seed {seed} mutant {n} ({kind}) of {label}", mutant, sub, rng, seen)
    # the mutants reach both the error paths and completed coinvariants, and
    # break the graded projection identity
    assert seen["R"] and seen["R error"] and seen["identity False"], seen


def test_projection_pi_matches_reference_on_graded_inputs_and_mutants():
    """projection_pi reads the product and coproduct rows; the reference
    applies pi to both sides of each law through the slot operations.  The
    reports agree, counters and witnesses included, on every graded input
    and on mutants with one entry of mult, comult or the unit perturbed."""
    rng = random.Random(7)
    graded = [(label, h) for label, h, _ in _inputs()
              if h.grading is not None and h.dim <= 15]
    failed = Counter()
    for label, h in graded:
        assert coinvariants.projection_pi(h) == ref.projection_pi(h), label
    for n in range(40):
        label, h = graded[n % len(graded)]
        d = h.dim
        kind = ("mult", "comult", "unit")[n % 3]
        if kind == "mult":
            mult = [list(row) for row in h.mult]
            i, j = rng.randrange(d), rng.randrange(d)
            mult[i][j] = _perturb(rng, mult[i][j], rng.randrange(d))
            h = _mutate(h, mult=tuple(tuple(row) for row in mult))
        elif kind == "comult":
            comult = list(h.comult)
            i = rng.randrange(d)
            comult[i] = _perturb(rng, comult[i], (rng.randrange(d), rng.randrange(d)))
            h = _mutate(h, comult=tuple(comult))
        else:
            h = _mutate(h, unit=_perturb(rng, h.unit, rng.randrange(d)))
        report = coinvariants.projection_pi(h)
        assert report == ref.projection_pi(h), f"mutant {n} ({kind}) of {label}"
        failed.update(v.axiom for v in report.violations)
    # every law of the projection was seen to fail, witnesses compared
    assert failed["projection-product"] and failed["projection-coproduct"], failed
    assert failed["projection-unit"], failed
