"""The coinvariant stages, the braiding-collapse diagnosis and the
categorical-subspace test against the slot-operation reference in
``reference_checkers``: identical coinvariant subspaces, R structure
constants, K-actions, K-coactions, braided pairs, collapse reports and
verdicts, or the same error, on the corpus entries, on truncated and
associated-graded inputs, and on mutants with one entry of the braiding or
of the coproduct perturbed.  R's coradical criterion against the wedge
ladder of the unit line, built by the dense oracle, on R and gr H of every
pipeline input, on seeded regradings and on hand-built coalgebras.  R read
from gr's rows, where pi is the counit, against R built by compute_R's
general path, on every input and on mutants that each break one condition
of the first."""
import dataclasses
import inspect
import random
from collections import Counter

import pytest

import reference_checkers as ref
from braidpbw import braided_space, coinvariants
from braidpbw.braided_space import GenericBraiding
from braidpbw.corpus import build_cached, corpus_entries, poly_plane, solvable_pair_y_indices
from braidpbw.filtration import (associated_graded, hopf_filtration, is_own_graded,
                                 subspace_from_indices)
from braidpbw.findim_hopf import StructureBialgebra
from braidpbw.linalg import Subspace
from braidpbw.reporting import CoinvariantsError
from braidpbw.scalars import ONE, ZERO, Scalar
from test_checker_oracle import _perturb, _quantum_plane, four_point
from test_filtration import kron_preimage
from test_findim_hopf import _mutate
from test_shared_tables import _pipeline_inputs


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
                gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, sub)))
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


def _compare_index_sets(label, h, seen: Counter):
    """is_central and is_cocentral on all indices, on a random proper subset
    and, for graded h, on the degree-zero indices.  The reference takes
    general rows: e_i at each index of the set, zero elsewhere."""
    subsets = {"all": range(h.dim), "subset": _proper_subset(label, h.dim)}
    if h.grading is not None and h.antipode is not None:
        subsets["degree zero"] = h.degree_indices(0)
    for kind, indices in subsets.items():
        kept = set(indices)
        rows = [({i: ONE} if i in kept else {}) for i in range(h.dim)]
        central = coinvariants.is_central(h, indices)
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
    _compare_index_sets(label, h, seen)
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
    report = coinvariants.check_braiding_collapse(coinv)
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


def _oracle_ladder(b):
    """The wedge ladder of b's unit line, each step from the dense oracle;
    it reads b's unit and coproduct, not its grading."""
    unit = Subspace.span(b.dim, [b.unit])
    steps = [unit]
    while steps[-1].dim < b.dim:
        nxt = kron_preimage(b, unit, steps[-1])
        if nxt.dim == steps[-1].dim:
            break
        steps.append(nxt)
    return steps


def _ladder_verdict(b, steps):
    """The reference for the coradical criterion: the unit-line ladder fills
    b, and its step n is the span of the basis vectors of degree <= n."""
    return steps[-1].dim == b.dim and all(
        step == subspace_from_indices(b, [i for i in range(b.dim) if b.degree(i) <= n])
        for n, step in enumerate(steps))


@pytest.mark.parametrize("label", [label for label, *_ in _pipeline_inputs()])
def test_coradical_criterion_matches_ladder_oracle(label):
    """R's coradical_matches_grading, and the criterion on gr H, are the
    verdicts of the dense unit-line ladder; R and gr H are compared once
    when they are one coalgebra, as whenever K = k1."""
    _, h, sub, _ = next(case for case in _pipeline_inputs() if case[0] == label)
    gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, sub)))
    coinv = coinvariants.compute_R(gr)
    r_alg = coinv.algebra
    assert coinv.coradical_matches_grading is _ladder_verdict(r_alg, _oracle_ladder(r_alg))
    # the criterion and the ladder read only the unit, grading and coproduct
    if (gr.unit, gr.grading, gr.comult) != (r_alg.unit, r_alg.grading, r_alg.comult):
        assert coinvariants._degree_filtration_is_coradical(gr) is \
            _ladder_verdict(gr, _oracle_ladder(gr))


def _hand_built(degrees, reduced):
    """A coalgebra on e_0 = 1, e_1, ... with the given degrees: e_0 is
    grouplike, and Delta(e_i) = e_i (x) 1 + 1 (x) e_i + the pairs in
    reduced[i], each with coefficient 1; zero product, flip braiding."""
    d = len(degrees)
    comult = tuple({(0, 0): ONE} if i == 0 else
                   {(i, 0): ONE, (0, i): ONE, **{ab: ONE for ab in reduced.get(i, ())}}
                   for i in range(d))
    return StructureBialgebra(
        names=tuple(f"e{i}" for i in range(d)), unit={0: ONE},
        mult=tuple(tuple({} for _ in range(d)) for _ in range(d)),
        counit=(ONE,) + (ZERO,) * (d - 1), comult=comult,
        braiding=GenericBraiding([[{(j, i): ONE} for j in range(d)] for i in range(d)]),
        grading=tuple(degrees))


def test_coradical_criterion_matches_ladder_oracle_off_pipeline(h4):
    """gr H4, whose degree-zero part is span(1, g), is not coradically
    graded.  Seeded regradings of eight coalgebras give both verdicts.  The
    coalgebra x primitive, Delta-bar z = x (x) x, Delta-bar y = x (x) z +
    z (x) x + x (x) x in degrees 0, 1, 2, 3 is filtered but not homogeneous
    and coradically graded; Delta-bar y = x (x) x in degrees 0, 1, 3 is
    not."""
    gr_h4 = associated_graded(hopf_filtration(h4, subspace_from_indices(h4, (0, 1))))
    assert coinvariants._degree_filtration_is_coradical(gr_h4) is False
    assert _ladder_verdict(gr_h4, _oracle_ladder(gr_h4)) is False

    grs = {label: associated_graded(hopf_filtration(h, subspace_from_indices(h, sub)))
           for label, h, sub, _ in _pipeline_inputs()
           if label in ("sweedler_h4", "taft3", "poly_line", "poly_plane_T2", "poly_plane_T3",
                        "quantum_plane_N3")}
    bases = list(grs.values()) + [coinvariants.compute_R(grs[label]).algebra
                                  for label in ("sweedler_h4", "taft3")]
    rng = random.Random(30)
    seen = Counter()
    for b in bases:
        steps = _oracle_ladder(b)
        for _ in range(50):
            degrees = list(b.grading)
            for _ in range(rng.choice((0, 1, 1, 2))):
                degrees[rng.randrange(b.dim)] = rng.randrange(max(degrees) + 2)
            regraded = dataclasses.replace(b, grading=tuple(degrees))
            verdict = coinvariants._degree_filtration_is_coradical(regraded)
            assert verdict is _ladder_verdict(regraded, steps), (b.names, degrees)
            seen[verdict] += 1
    assert seen[True] and seen[False], seen

    filtered = _hand_built((0, 1, 2, 3), {2: [(1, 1)], 3: [(1, 2), (2, 1), (1, 1)]})
    gapped = _hand_built((0, 1, 3), {2: [(1, 1)]})
    for b, want in ((filtered, True), (gapped, False)):
        assert coinvariants._degree_filtration_is_coradical(b) is want
        assert _ladder_verdict(b, _oracle_ladder(b)) is want


def _both_paths(monkeypatch, gr):
    """compute_R on gr as it runs, and with reading R from gr's rows refused:
    for each, ("read" or "built", everything it returns but the parent), or
    ("error", the CoinvariantsError text)."""
    original = coinvariants._r_is_gr
    read = []

    def spying(*args):
        read.append(original(*args))
        return read[-1]

    def outcome():
        read.clear()
        try:
            coinv = coinvariants.compute_R(gr)
        except CoinvariantsError as exc:
            return "error", str(exc)
        r_alg = coinv.algebra
        return ("read" if read == [True] else "built",
                (coinv.inclusion.rows, coinv.k_indices, _structure(r_alg), r_alg.antipode is None,
                 coinv.action, coinv.coaction, coinv.braided_reps, coinv.kernel_is_left_ideal,
                 coinv.coradical_matches_grading))

    with monkeypatch.context() as m:
        m.setattr(coinvariants, "_r_is_gr", spying)
        ours = outcome()
        m.setattr(coinvariants, "_r_is_gr", lambda *args: False)
        built = outcome()
    return ours, built


def test_r_read_from_gr_rows_is_the_built_r(monkeypatch):
    """On gr H of every pipeline input and on every graded input with an
    antipode of the corpus comparison, R read from gr's rows is R built,
    field for field, or both give the same error; it is read on every
    K = k1 pipeline input and on no other."""
    k1 = []
    cases = []
    for label, h, sub, _ in _pipeline_inputs():
        cases.append((label, associated_graded(hopf_filtration(h, subspace_from_indices(h, sub)))))
        if len(sub) == 1:
            k1.append(label)
    cases += [(label, h) for label, h, _ in _inputs()
              if h.grading is not None and h.antipode is not None]
    read = set()
    for label, gr in cases:
        ours, built = _both_paths(monkeypatch, gr)
        assert built[0] != "read" and built[1] == ours[1], label
        assert (ours[0] == "error") == (built[0] == "error"), label
        if ours[0] == "read":
            read.add(label)
    pipeline_labels = {label for label, *_ in _pipeline_inputs()}
    assert read & pipeline_labels == set(k1)
    assert k1 and read - pipeline_labels


CONDITIONS = ("images", "own_graded", "coaction", "conjugation")


def _conditions(gr) -> dict:
    """The four conditions under which compute_R reads R from gr's rows,
    each decided on its own: every pi-image is its basis vector, gr's rows
    are its own graded tables, the degree-0-left coproduct terms of each
    e_a are e_k (x) e_a, and the conjugation by e_k fixes every e_u, for e_k
    the degree-zero basis vector."""
    k = gr.degree_indices(0)[0]
    ad = coinvariants._Conjugation(gr, k)
    return {
        "images": all(img == {i: ONE} for i, img in enumerate(coinvariants._pi_images(gr))),
        "own_graded": is_own_graded(gr, list(gr.grading)),
        "coaction": all({(x, y): s for (x, y), s in cop.items() if gr.degree(x) == 0}
                        == {(k, a): ONE} for a, cop in enumerate(gr.comult)),
        "conjugation": all(ad[u] == {u: ONE} for u in range(gr.dim)),
    }


def _r_is_gr_mutants(h) -> list:
    """(broken condition, mutant): h, whose unit is e_0 and whose R is h,
    with one of the four conditions broken.  Right multiplication by 1 is
    not the identity on e_x while the conjugation by 1 still is (e_x 1 =
    x + y, 1 e_x = x - y); a product with a term of lower degree; a product
    with a stored zero; Delta(e_x) with a second degree-0-left term; and
    1 e_x = x + y, which the conjugation by 1 then gives too."""
    x, y = [i for i in range(h.dim) if h.grading[i] == 1][:2]
    unused = next(i for i in range(h.dim) if h.grading[i] == 2 and i not in h.mult[x][y])

    def mult(*changes):
        rows = [list(row) for row in h.mult]
        for a, b, vec in changes:
            rows[a][b] = vec
        return _mutate(h, mult=tuple(tuple(row) for row in rows))

    comult = list(h.comult)
    comult[x] = {**comult[x], (0, y): ONE}
    return [
        ("images", mult((x, 0, {x: ONE, y: ONE}), (0, x, {x: ONE, y: -ONE}))),
        ("own_graded", mult((x, y, {**h.mult[x][y], 0: ONE}))),
        ("own_graded", mult((x, y, {**h.mult[x][y], unused: ZERO}))),
        ("coaction", _mutate(h, comult=tuple(comult))),
        ("conjugation", mult((0, x, {x: ONE, y: ONE}))),
    ]


@pytest.mark.parametrize("build", [lambda: poly_plane(2), lambda: _quantum_plane(3, 2)],
                         ids=["poly_plane_2", "quantum_plane_N3"])
def test_r_read_from_gr_rows_agrees_with_the_build_path_on_mutants(monkeypatch, build):
    """R of h is read from its rows; each mutant breaks exactly its named
    condition, so R is built, and the build path refused the reading gives
    the same R or the same error text."""
    h = build()
    assert _conditions(h) == dict.fromkeys(CONDITIONS, True)
    assert _both_paths(monkeypatch, h)[0][0] == "read"
    kinds = Counter()
    for broken, mutant in _r_is_gr_mutants(h):
        assert _conditions(mutant) == {c: c != broken for c in CONDITIONS}, broken
        ours, built = _both_paths(monkeypatch, mutant)
        assert ours == built, broken
        kinds[ours[0]] += 1
    assert set(kinds) == {"built", "error"}, kinds
