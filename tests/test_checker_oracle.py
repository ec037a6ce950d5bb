"""The axiom checkers against the slot-operation reference in
``reference_checkers``: identical reports, counters, witnesses and verdicts on
the corpus, on truncated and associated-graded inputs, and on mutants."""
import inspect
import random
from collections import Counter

import pytest

import reference_checkers as ref
from braidpbw import braided_space, coinvariants, findim_hopf
from braidpbw.braided_space import FiniteAbelianGroup, GenericBraiding
from braidpbw.corpus import (
    build_cached,
    corpus_entries,
    poly_plane,
    primitively_generated,
    super_line,
    sweedler_h4,
    symmetric_bialgebra,
    taft,
    taft3,
)
from braidpbw.findim_hopf import Tables
from braidpbw.multilinear import as_scalar
from braidpbw.filtration import associated_graded, hopf_filtration, subspace_from_indices
from braidpbw.pipeline import check_report
from braidpbw.scalars import MINUS_ONE, ONE, Scalar, root_of_unity
from test_findim_hopf import _mutate
from test_symmetric_algebra import FOUR_POINT

REPORTS = ("check_braided_algebra", "check_braided_coalgebra",
           "check_braided_bialgebra", "check_antipode", "check_commutator_coproduct_all")


def _fast_and_reference(h):
    """{checker name: (fast result, reference result)} for every checker."""
    out = {}
    for name in REPORTS:
        if name == "check_antipode" and h.antipode is None:
            continue
        out[name] = tuple((r.to_json(), r.note) for r in (getattr(findim_hopf, name)(h),
                                                          getattr(ref, name)(h)))
    for name in ("braid_check", "is_symmetric"):
        out[name] = (getattr(braided_space, name)(h.braiding), getattr(ref, name)(h.braiding))
    out["is_c_commutative"] = (coinvariants.is_central(h, range(h.dim)),
                               ref.is_c_commutative(h))
    return out


def _assert_same(h, label):
    for name, (fast, reference) in _fast_and_reference(h).items():
        assert fast == reference, f"{label}/{name}"


def _inputs():
    """The corpus entries, the truncated ones also at T = 1..3, and the
    associated graded of the entries with a subalgebra at T = 2.  Entries
    that share a bialgebra (and differ in the subalgebra) give it once.
    Then R of taft(n), n = 3, 4, 5, over K = span(g^a): a valid bialgebra
    with c(x x x) = zeta_n x x x, so c c - id is nonzero on every pair of
    positive-degree basis vectors."""
    builds = set()
    for entry in corpus_entries():
        if entry.build in builds:
            continue
        builds.add(entry.build)
        yield entry.name, build_cached(entry.name)
        if "truncation" in inspect.signature(entry.build).parameters:
            for t in (1, 2, 3):
                yield f"{entry.name}@T={t}", entry.build(t)
    for name, build, sub in (("sweedler_h4", sweedler_h4, (0, 1)), ("taft3", taft3, (0, 1, 2))):
        h = build()
        yield f"gr {name}", associated_graded(hopf_filtration(
            h, subspace_from_indices(h, sub)))
    for entry in corpus_entries():
        if entry.sub_indices and "truncation" in inspect.signature(entry.build).parameters:
            h = entry.build(2)
            sub = [i for i in entry.sub_indices if i < h.dim]
            yield f"gr {entry.name}@T=2", associated_graded(hopf_filtration(
                h, subspace_from_indices(h, sub)))
    yield "four_point@T=2", four_point()
    for n in (3, 4, 5):
        h = taft(n)
        gr = associated_graded(hopf_filtration(h, subspace_from_indices(h, range(n))))
        yield f"R taft({n})", coinvariants.compute_R(gr).algebra


def four_point(truncation: int = 2):
    """S(V, c) of the four-point set-theoretic solution: a non-diagonal
    braiding, whose rows map e_i x e_j to keys (x, y) other than (j, i)."""
    return symmetric_bialgebra([f"x{i}" for i in range(FOUR_POINT.dim)], FOUR_POINT, truncation)


def off_flip_mutant(seed: int = 0):
    """The four-point S(V, c) at T=2 with one off-flip coefficient of its
    braiding, at a key (x, y) != (j, i) of a row [i][j], perturbed."""
    rng = random.Random(seed)
    h = four_point()
    rows = [list(row) for row in h.braiding.rows]
    i, j, key = rng.choice([(i, j, key) for i in range(h.dim) for j in range(h.dim)
                            for key in rows[i][j] if key != (j, i)])
    rows[i][j] = _perturb(rng, rows[i][j], key)
    return _mutate(h, braiding=GenericBraiding(rows))


def _keeps_truncation_degree(h) -> bool:
    """Whether every term e_x x e_y of c(e_i x e_j), at each pair below the
    truncation, has g_x + g_y <= g_i + g_j: the hypothesis under which the
    commutator-coproduct identity follows from the axioms on a truncated
    input (see check_commutator_coproduct_all)."""
    g = h.gates
    return all(g[x] + g[y] <= g[i] + g[j] for i in range(h.dim) for j in range(h.dim)
               if g[i] + g[j] <= h.cap for x, y in h.braiding.rows[i][j])


def test_checkers_match_reference_on_corpus():
    seen_skips = False
    for label, h in _inputs():
        _assert_same(h, label)
        assert _keeps_truncation_degree(h), label
        seen_skips |= findim_hopf.check_braided_algebra(h).skipped > 0
    assert seen_skips


# ---------------------------------------------------------------------------
# mutants: one entry of mult, comult, braiding or antipode perturbed
# ---------------------------------------------------------------------------

DELTAS = (ONE, MINUS_ONE, Scalar.from_rational(2), Scalar.from_rational("1/2"),
          root_of_unity(3), root_of_unity(4))


def _perturb(rng, row: dict, key, deltas=DELTAS):
    """A copy of row with the coefficient at key changed by a nonzero delta;
    an exact zero it leaves stays in the row."""
    row = dict(row)
    delta = rng.choice(deltas)
    row[key] = row[key] + delta if key in row else delta
    return row


def _mutant(rng, h):
    d = h.dim
    kind = rng.choice(("mult", "comult", "braiding", "antipode"))
    if kind == "mult":
        i, j = rng.randrange(d), rng.randrange(d)
        mult = [list(row) for row in h.mult]
        mult[i][j] = _perturb(rng, mult[i][j], rng.randrange(d))
        return kind, _mutate(h, mult=tuple(tuple(row) for row in mult))
    if kind == "comult":
        i = rng.randrange(d)
        comult = list(h.comult)
        comult[i] = _perturb(rng, comult[i], (rng.randrange(d), rng.randrange(d)))
        return kind, _mutate(h, comult=tuple(comult))
    if kind == "braiding":
        i, j = rng.randrange(d), rng.randrange(d)
        rows = [list(row) for row in h.braiding.rows]
        rows[i][j] = _perturb(rng, rows[i][j], (rng.randrange(d), rng.randrange(d)))
        return kind, _mutate(h, braiding=GenericBraiding(rows))
    i = rng.randrange(d)
    antipode = list(h.antipode)
    antipode[i] = _perturb(rng, antipode[i], rng.randrange(d))
    return kind, _mutate(h, antipode=tuple(antipode))


def _mutant_bases(seed: int):
    """The bialgebras that the mutant streams perturb, in turn."""
    bases = [build_cached("sweedler_h4"), build_cached("taft3"), build_cached("kc2")]
    bases += [entry.build(2) for entry in corpus_entries()
              if entry.name in ("poly_plane", "super_line", "solvable_pair")]
    # d >= 10, so that packed keys have more than one base-d digit per leg,
    # and a non-diagonal braiding with and without an off-flip perturbation
    return bases + [poly_plane(3), four_point(), off_flip_mutant(seed)]


@pytest.mark.parametrize("seed", range(6))
def test_checkers_match_reference_on_mutants(seed):
    rng = random.Random(seed)
    bases = _mutant_bases(seed)
    failing = {name: 0 for name in REPORTS}
    lowered = Counter()
    wide = symmetric_failing = 0
    for n in range(12):
        kind, h = _mutant(rng, bases[n % len(bases)])
        lowered[h.lowered.one is not ONE] += 1
        results = _fast_and_reference(h)
        for name, (fast, reference) in results.items():
            assert fast == reference, f"seed {seed} mutant {n} ({kind})/{name}"
        for name in REPORTS:
            if name in results and not results[name][0][0]["ok"]:
                failing[name] += 1
                wide += h.dim >= 10
        symmetric_failing += (h.braiding.symmetric
                              and not results["check_commutator_coproduct_all"][0][0]["ok"])
    # the reports are compared with violations in them, witnesses and all,
    # on tables compiled to ints and to Scalars, and at d >= 10, and the
    # commutator-coproduct check's on a symmetric braiding, whose sides it
    # reads from the commutator table
    assert all(failing.values()), failing
    assert lowered[True] and lowered[False], lowered
    assert wide, wide
    assert symmetric_failing, symmetric_failing


def test_commutator_coproduct_failure_implies_axiom_failure():
    """The identity of check_commutator_coproduct_all follows from the
    braid-comul and comul-mult laws (its docstring has the proof), so on the
    mutant stream of test_checkers_match_reference_on_mutants, 40 seeds of
    12 mutants, every commutator-coproduct failure comes with a failing
    axiom report.  A bialgebra or coalgebra checker that wrongly passed a
    bad table would show here as a commutator failure under all_ok."""
    seen = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        bases = _mutant_bases(seed)
        for n in range(12):
            kind, h = _mutant(rng, bases[n % len(bases)])
            commutator_ok = findim_hopf.check_commutator_coproduct_all(h).ok
            axioms_ok = check_report(h)["all_ok"]
            assert commutator_ok or not axioms_ok, f"seed {seed} mutant {n} ({kind})"
            seen[commutator_ok, axioms_ok] += 1
    # both checks fail on some mutants, and some mutants pass the axioms
    assert seen[False, False] and seen[True, True], seen


def _quantum_plane(n: int, truncation: int):
    """x, y primitive with yx = zeta_N xy, over Q(zeta_N)."""
    zeta = root_of_unity(n)
    return primitively_generated(["x", "y"], FiniteAbelianGroup((n, n)),
                                 ((ONE, zeta), (zeta.inverse(), ONE)), [(1, 0), (0, 1)],
                                 truncation)


BRAID_DELTAS = (ONE, MINUS_ONE, Scalar.from_rational(2), Scalar.from_rational("1/2"),
                root_of_unity(3))


@pytest.mark.parametrize("seed", range(3))
def test_braiding_kernels_match_reference_on_mutants(seed):
    """braid_check and is_symmetric against the slot-operation reference on
    integral braidings (compiled to ints) and cyclotomic ones (kept as
    Scalars), diagonal and non-diagonal ones, each unchanged and with one
    entry perturbed.  Half the mutants rescale an existing coefficient,
    which keeps a diagonal braiding a solution of the braid equation; the
    others perturb a random entry."""
    rng = random.Random(300 + seed)
    bases = [poly_plane(2).braiding, super_line(2).braiding, build_cached("taft3").braiding,
             _quantum_plane(3, 2).braiding, four_point().braiding,
             off_flip_mutant(seed).braiding]
    seen = Counter()
    for n in range(48):
        c = bases[n % len(bases)]
        if n >= len(bases):
            d, i, j = c.dim, rng.randrange(c.dim), rng.randrange(c.dim)
            rows = [list(row) for row in c.rows]
            key = next(iter(rows[i][j]), None) if n // len(bases) % 2 else None
            if key is None:
                key = (rng.randrange(d), rng.randrange(d))
            rows[i][j] = _perturb(rng, rows[i][j], key, BRAID_DELTAS)
            c = GenericBraiding(rows)
        domain = "int" if c.lowered[1] is not ONE else "Scalar"
        for name in ("braid_check", "is_symmetric"):
            got = getattr(braided_space, name)(c)
            assert got == getattr(ref, name)(c), f"seed {seed} braiding {n}/{name}"
            seen[name, domain, got] += 1
    # both verdicts of both kernels were compared on both coefficient types
    for name in ("braid_check", "is_symmetric"):
        for domain in ("int", "Scalar"):
            assert seen[name, domain, True] and seen[name, domain, False], seen


def _entries(compiled):
    """A compiled sparse vector back as a dict of Scalars, keyed as the dict
    tables are: by the atom for (k, s) terms and by (a, b) for (a, b, s)."""
    return {t[0] if len(t) == 2 else t[:-1]: as_scalar(t[-1]) for t in compiled}


def _view(g):
    """(coefficient types, same entries as the dict tables) of g's view."""
    low = g.lowered
    vecs = [(low.unit, g.unit)]
    vecs += [(low.mult[i][j], g.mult[i][j]) for i in range(g.dim) for j in range(g.dim)]
    vecs += [(low.braid[i][j], g.braiding.rows[i][j]) for i in range(g.dim) for j in range(g.dim)]
    vecs += list(zip(low.comult, g.comult)) + list(zip(low.antipode or (), g.antipode or ()))
    types = {type(t[-1]) for compiled, _ in vecs for t in compiled}
    types |= {type(v) for v in low.counit} | {type(low.zero), type(low.one)}
    same = all(_entries(compiled) == vec for compiled, vec in vecs)
    same &= [as_scalar(v) for v in low.counit] == list(g.counit)
    return types, same and as_scalar(low.one) == ONE and not low.zero


def test_lowering_rule():
    """The compiled view holds the dict tables' entries as tuples of terms,
    with int coefficients exactly when every coefficient of the bialgebra and
    of its braiding is a rational integer and Scalars otherwise.  It is
    derived once per object, and the bialgebra and its braiding share one
    braid table whenever their coefficients are of one type."""
    h = poly_plane(3)
    low = h.lowered
    assert _view(h) == ({int}, True)
    assert h.braiding.lowered[0] is low.braid
    assert h.lowered is low  # derived once, then cached on the object
    # cyclotomic products under the flip: the braid table is compiled again
    taft = build_cached("taft3")
    assert _view(taft) == ({Scalar}, True)
    assert type(taft.braiding.lowered[1]) is int
    # one product entry scaled by 1/2, under an integral braiding
    mult = [list(row) for row in h.mult]
    i, j = next((i, j) for i in range(h.dim) for j in range(h.dim) if h.mult[i][j])
    mult[i][j] = {k: v * Scalar.from_rational("1/2") for k, v in mult[i][j].items()}
    assert _view(_mutate(h, mult=tuple(tuple(row) for row in mult))) == ({Scalar}, True)
    # an integral product with a cyclotomic braiding
    mixed = _mutate(h, braiding=GenericBraiding.diagonal(
        [[root_of_unity(3) if (a, b) == (1, 2) else ONE for b in range(h.dim)]
         for a in range(h.dim)]))
    assert _view(mixed) == ({Scalar}, True)
    assert mixed.braiding.lowered[0] is mixed.lowered.braid
    # a new object derives its own view, with the same terms
    again = _mutate(h).lowered
    assert again is not low
    assert [getattr(again, f) for f in Tables.__slots__] == [getattr(low, f) for f in Tables.__slots__]
    # a further table is compiled in the view's coefficient type
    for g, kind in ((h, int), (taft, Scalar)):
        comm = g.commutators
        compiled = g.lowered.compile(comm)
        assert {type(t[-1]) for row in compiled for vec in row for t in vec} <= {kind}
        assert [[_entries(vec) for vec in row] for row in compiled] == comm
