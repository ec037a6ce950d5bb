import random
from fractions import Fraction

import pytest

from braidpbw.braided_space import is_categorical
from braidpbw.coinvariants import is_central
from braidpbw.corpus import color_plane, poly_line, super_line
from braidpbw.filtration import (
    FiltrationError,
    FiltrationLadder,
    associated_graded,
    check_commutator_filtration,
    hopf_filtration,
    subspace_from_indices,
    validate_hopf_subalgebra,
    wedge,
)
from braidpbw.findim_hopf import run_all_checks
from braidpbw.linalg import Subspace, rref
from braidpbw.multilinear import vec_equal
from braidpbw.scalars import ONE, ZERO, Scalar, euler_phi


def _dense(vec, n):
    return [vec.get(i, ZERO) for i in range(n)]


def _sparse(row):
    return {i: c for i, c in enumerate(row) if not c.is_zero()}


def _is_coordinate(sub):
    return all(len(row) == 1 for row in sub.rows)


def unit_ladder(h):
    """The wedge ladder of the unit line: the coradical filtration of a
    connected h."""
    return hopf_filtration(h, subspace_from_indices(h, (0,)))


def _kron_rows(rows_a, rows_b):
    """Dense Kronecker products u (x) w, entry (a, b) at a * len(w) + b."""
    return [[x * y for x in u for y in w] for u in rows_a for w in rows_b]


def _allowed_rows(h, k, w):
    """Dense rows spanning K (x) H + H (x) W in the d^2 coordinates."""
    d = h.dim
    eye = [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]
    return (_kron_rows([_dense(r, d) for r in k.rows], eye)
            + _kron_rows(eye, [_dense(r, d) for r in w.rows]))


def kron_preimage(h, k, w):
    """{x : Delta(x) in K (x) H + H (x) W}, independently of wedge: the x
    parts of the relations sum_i x_i Delta(e_i) + sum_j y_j a_j = 0 over the
    kron rows a_j, read off the dense RREF of [Delta; allowed | identity]."""
    d = h.dim
    delta = [[h.comult[i].get((a, b), ZERO) for a in range(d) for b in range(d)]
             for i in range(d)]
    stacked = delta + _allowed_rows(h, k, w)
    n = len(stacked)
    augmented = [row + [ONE if t == s else ZERO for t in range(n)]
                 for s, row in enumerate(stacked)]
    red, pivots = rref(augmented)
    relations = [r[d * d:d * d + d] for r, p in zip(red, pivots) if p >= d * d]
    return Subspace.span(d, [_sparse(x) for x in relations])


def test_wedge_whole_space_is_everything(h4):
    full = subspace_from_indices(h4, range(h4.dim))
    k = subspace_from_indices(h4, (0, 1))
    assert wedge(h4, full, full) == full
    assert wedge(h4, k, full) == full


def test_wedge_h4(h4):
    k = subspace_from_indices(h4, (0, 1))
    assert wedge(h4, k, k).dim == 4


def test_wedge_taft(taft):
    k = subspace_from_indices(taft, (0, 1, 2))
    step = wedge(taft, k, k)
    assert step.dim == 6
    # the step is the span of K, x, g x, g^2 x
    expected = subspace_from_indices(taft, (0, 1, 2, 3, 4, 5))
    assert step == expected
    assert wedge(taft, k, step).dim == 9


def test_hopf_filtration_trivial(h4):
    full = subspace_from_indices(h4, range(h4.dim))
    ladder = hopf_filtration(h4, full)
    assert ladder.dims == [4]
    assert ladder.exhaustive


def test_hopf_filtration_h4(h4):
    ladder = hopf_filtration(h4, subspace_from_indices(h4, (0, 1)))
    assert ladder.dims == [2, 4]
    assert ladder.exhaustive


def test_hopf_filtration_taft(taft):
    ladder = hopf_filtration(taft, subspace_from_indices(taft, (0, 1, 2)))
    assert ladder.dims == [3, 6, 9]
    assert ladder.exhaustive


def test_hopf_filtration_not_exhaustive_when_K_misses_coradical(h4):
    # span(1) is a perfectly good Hopf subalgebra of the Sweedler algebra,
    # but it misses the group-likes: the ladder stabilises early, which is
    # the operational signal that K does not contain the coradical
    k = subspace_from_indices(h4, (0,))
    ladder = hopf_filtration(h4, k)
    assert not ladder.exhaustive
    assert ladder.dims == [1]


def test_pipeline_reports_non_exhaustive_stage(h4):
    from braidpbw.pipeline import PipelineError, run_pipeline

    with pytest.raises(PipelineError, match="filtration"):
        run_pipeline(h4, subspace_from_indices(h4, (0,)), 2)


def test_pipeline_lets_engine_bugs_through(h4, monkeypatch):
    import braidpbw.pipeline as pipeline

    def broken(h, k):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(pipeline, "hopf_filtration", broken)
    with pytest.raises(RuntimeError, match="engine bug") as info:
        pipeline.run_pipeline(h4, subspace_from_indices(h4, (0, 1)), 2)
    assert type(info.value) is RuntimeError


def test_wedge_non_coordinate_subspaces(corpus):
    # kC2 with the non-coordinate line through 1 + g: the wedge preimage is
    # the line through 1 - g (checked against direct membership of the
    # coproduct image in the allowed sum)
    from braidpbw.scalars import MINUS_ONE

    h = corpus["kc2"]
    line = Subspace.span(2, [{0: ONE, 1: ONE}])
    assert not _is_coordinate(line)
    result = wedge(h, line, line)
    expected = Subspace.span(2, [{0: ONE, 1: MINUS_ONE}])
    assert result == expected
    # independent route: the coproduct of each result vector lies in the span
    allowed = Subspace.span(4, [_sparse(r) for r in _allowed_rows(h, line, line)])
    for r in result.rows:
        image = h.comultiply(r)
        assert allowed.contains_vector({a * 2 + b: c for (a, b), c in image.items()})
    assert result == kron_preimage(h, line, line)


def _random_scalar(rng, conductor):
    if conductor == 1:
        return Scalar.from_rational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return Scalar.from_poly(conductor, [rng.randint(-1, 1) for _ in range(euler_phi(conductor))])


def _random_subspace(rng, h, conductor):
    rows = []
    for _ in range(rng.randint(1, h.dim - 1)):
        vec = {i: _random_scalar(rng, conductor) for i in range(h.dim)}
        rows.append({i: c for i, c in vec.items() if not c.is_zero()})
    return Subspace.span(h.dim, rows)


@pytest.mark.parametrize("conductor", [1, 12])
@pytest.mark.parametrize("name", ["kc2", "sweedler_h4"])
def test_wedge_random_subspaces_against_kron_oracle(corpus, name, conductor):
    h = corpus[name]
    rng = random.Random(f"{name}-{conductor}")
    non_coordinate = 0
    for _ in range(6):
        k, w = _random_subspace(rng, h, conductor), _random_subspace(rng, h, conductor)
        non_coordinate += not (_is_coordinate(k) and _is_coordinate(w))
        assert wedge(h, k, w) == kron_preimage(h, k, w)
    assert non_coordinate > 0
    # coordinate subspaces go through the same path
    k = subspace_from_indices(h, (0,))
    assert wedge(h, k, k) == kron_preimage(h, k, k)


def test_hopf_filtration_rejects_non_subalgebra(h4):
    ix = h4.names.index("x")
    bad = subspace_from_indices(h4, (0, ix))
    report = validate_hopf_subalgebra(h4, bad)
    assert not report.ok
    with pytest.raises(FiltrationError):
        hopf_filtration(h4, bad)


def test_coradical_filtration_poly(corpus):
    h = corpus["poly_line"]
    ladder = unit_ladder(h)
    assert ladder.dims == list(range(1, 8))
    # step n is the span of 1, x, ..., x^n
    for n, step in enumerate(ladder.steps):
        assert step == subspace_from_indices(h, tuple(range(n + 1)))


def test_coradical_filtration_super(corpus):
    h = corpus["super_line"]
    ladder = unit_ladder(h)
    # degree-n slice of the super line has dimension 2 for n >= 1
    assert ladder.dims[:3] == [1, 3, 5]


def test_coradical_filtration_exterior_line():
    # one odd primitive generator: everything is reached at the first step
    from braidpbw.braided_space import FiniteAbelianGroup
    from braidpbw.corpus import primitively_generated
    from braidpbw.scalars import MINUS_ONE

    g = FiniteAbelianGroup((2,))
    ext = primitively_generated(["th"], g, ((MINUS_ONE,),), [(1,)], truncation=2)
    assert ext.dim == 2  # the square of the generator straightens to zero
    ladder = unit_ladder(ext)
    assert ladder.dims == [1, 2]
    assert ladder.exhaustive


def test_coradical_rejects_non_connected(h4, taft):
    # the group-likes lie outside the unit line: its ladder stops short of
    # H, and the associated graded of a short ladder is refused
    for h in (h4, taft):
        ladder = unit_ladder(h)
        assert ladder.dims == [1] and not ladder.exhaustive
        with pytest.raises(FiltrationError, match="exhaust"):
            associated_graded(ladder)


def test_coradical_equals_unit_wedge_ladder(corpus):
    # these are primitively generated, so the coradical filtration is the
    # degree filtration: step n is the span of the monomials of degree <= n
    for name in ("poly_line", "super_line", "color_plane", "solvable_pair"):
        h = corpus[name]
        ladder = unit_ladder(h)
        assert ladder.exhaustive, name
        for n, step in enumerate(ladder.steps):
            low = [i for i in range(h.dim) if h.degree(i) <= n]
            assert step == subspace_from_indices(h, low), (name, n)
    # and each step is the exact coproduct preimage of the dense oracle
    for h in (poly_line(3), super_line(2)):
        unit = subspace_from_indices(h, (0,))
        steps = unit_ladder(h).steps
        for prev, step in zip(steps, steps[1:]):
            assert step == kron_preimage(h, unit, prev)


def test_associated_graded_idempotent_for_coradically_graded(corpus):
    h = corpus["poly_line"]
    gr = associated_graded(unit_ladder(h))
    assert gr.names == h.names
    for i in range(h.dim):
        for j in range(h.dim):
            assert vec_equal(gr.mult[i][j], h.mult[i][j])
        assert vec_equal(gr.comult[i], h.comult[i])


def test_associated_graded_h4_relations(h4):
    gr = associated_graded(hopf_filtration(h4, subspace_from_indices(h4, (0, 1))))
    assert gr.grading == (0, 0, 1, 1)
    ig, ix, igx = gr.names.index("g"), gr.names.index("x"), gr.names.index("gx")
    i1 = gr.names.index("1")
    assert gr.multiply({ig: ONE}, {ig: ONE}) == {i1: ONE}
    assert gr.multiply({ix: ONE}, {ix: ONE}) == {}
    gx = gr.multiply({ig: ONE}, {ix: ONE})
    xg = gr.multiply({ix: ONE}, {ig: ONE})
    assert vec_equal(gx, {k: -c for k, c in xg.items()})


def test_associated_graded_taft_dims(taft):
    gr = associated_graded(hopf_filtration(taft, subspace_from_indices(taft, (0, 1, 2))))
    assert [len(gr.degree_indices(n)) for n in range(3)] == [3, 3, 3]


def test_associated_graded_passes_all_checkers(corpus, h4, taft):
    cases = [
        (h4, hopf_filtration(h4, subspace_from_indices(h4, (0, 1)))),
        (taft, hopf_filtration(taft, subspace_from_indices(taft, (0, 1, 2)))),
        (corpus["super_line"], unit_ladder(corpus["super_line"])),
        (corpus["solvable_pair"], unit_ladder(corpus["solvable_pair"])),
    ]
    for h, ladder in cases:
        gr = associated_graded(ladder)
        for name, report in run_all_checks(gr).items():
            assert report.ok, f"{name}:\n{report.summary()}"


NOT_BIALGEBRA_FILTRATIONS = [
    # span(1) < span(1, x + y) < H in color_plane(1): c((x + y) (x) x) is
    # x (x) (x - y), outside H (x) span(1, x + y)
    (lambda: color_plane(1),
     lambda h: [subspace_from_indices(h, (0,)), Subspace.span(h.dim, [{0: ONE}, {1: ONE, 2: ONE}]),
                subspace_from_indices(h, range(h.dim))],
     "not a bialgebra filtration:\n"
     "bialgebra filtration: 1 violation(s) (13 checks, skipped 4 above degree cap)\n"
     "  categorical-steps at (): steps != categorical"),
    # span(1, x^2) < span(1, x, x^2) < H in poly_line(3)
    (lambda: poly_line(3),
     lambda h: [subspace_from_indices(h, (0, 2)), subspace_from_indices(h, (0, 1, 2)),
                subspace_from_indices(h, range(h.dim))],
     "not a bialgebra filtration:\n"
     "bialgebra filtration: 3 violation(s) (20 checks, skipped 6 above degree cap)\n"
     "  product-degree at (1,2): deg product != <= 1\n"
     "  product-degree at (2,1): deg product != <= 1\n"
     "  coproduct-degree at (1): split degrees != sum <= 0"),
    # span(1 + x) < span(1, x) < span(1, x, x^2) < H in poly_line(3)
    (lambda: poly_line(3),
     lambda h: [Subspace.span(h.dim, [{0: ONE, 1: ONE}]), subspace_from_indices(h, (0, 1)),
                subspace_from_indices(h, (0, 1, 2)), subspace_from_indices(h, range(h.dim))],
     "not a bialgebra filtration:\n"
     "bialgebra filtration: 11 violation(s) (18 checks, skipped 8 above degree cap)\n"
     "  unit-degree at (): unit != in bottom step\n"
     "  product-degree at (0,0): deg product != <= 0\n"
     "  product-degree at (0,1): deg product != <= 1\n"
     "  product-degree at (0,2): deg product != <= 2\n"
     "  product-degree at (1,0): deg product != <= 1\n"
     "  product-degree at (2,0): deg product != <= 2\n"
     "  coproduct-degree at (0): split degrees != sum <= 0\n"
     "  antipode-degree at (0): deg S != <= 0\n"
     "  coproduct-degree at (1): split degrees != sum <= 1\n"
     "  coproduct-degree at (2): split degrees != sum <= 2\n"
     "  coproduct-degree at (3): split degrees != sum <= 3"),
]


@pytest.mark.parametrize("build, steps, message", NOT_BIALGEBRA_FILTRATIONS,
                         ids=["non-categorical", "degree-breaking", "unit-above-bottom"])
def test_associated_graded_rejects_non_bialgebra_filtrations(build, steps, message):
    """Hand-built exhaustive ladders that break the categorical, product,
    coproduct, antipode and unit conditions, with the exact report of every
    violation."""
    h = build()
    ladder = FiltrationLadder(h, steps(h))
    assert ladder.exhaustive
    with pytest.raises(FiltrationError) as exc:
        associated_graded(ladder)
    assert str(exc.value) == message


def test_associated_graded_needs_exhaustive(corpus):
    h = corpus["poly_line"]
    ladder = FiltrationLadder(h, unit_ladder(h).steps[:3])
    assert not ladder.exhaustive
    with pytest.raises(FiltrationError, match="exhaust"):
        associated_graded(ladder)


def test_commutator_filtration_solvable(corpus):
    h = corpus["solvable_pair"]
    ladder = unit_ladder(h)
    report = check_commutator_filtration(ladder)
    assert report.ok
    assert report.checked > 0


def test_commutator_filtration_commutative_cases(corpus):
    for name in ("poly_line", "poly_plane", "super_line", "color_plane"):
        h = corpus[name]
        ladder = unit_ladder(h)
        assert check_commutator_filtration(ladder).ok, name


def test_gr_c_commutative_for_connected_symmetric(corpus):
    for name in ("poly_line", "poly_plane", "super_line", "color_plane", "solvable_pair"):
        h = corpus[name]
        gr = associated_graded(unit_ladder(h))
        assert is_central(gr, range(gr.dim)), name


def test_ladder_steps_categorical_and_antipode_stable(corpus, h4, taft):
    # what associated_graded decides from its expansions, checked step by step
    for h, sub in ((h4, (0, 1)), (taft, (0, 1, 2)), (corpus["super_line"], (0,))):
        ladder = hopf_filtration(h, subspace_from_indices(h, sub))
        for step in ladder.steps:
            assert is_categorical(h.braiding, step)
            assert all(step.contains_vector(h.apply_antipode(r)) for r in step.rows)
        associated_graded(ladder)


def test_adapted_basis_expansion_roundtrip(h4):
    ladder = hopf_filtration(h4, subspace_from_indices(h4, (0, 1)))
    basis, degrees = ladder.adapted
    assert ladder.adapted is ladder.adapted  # built once per ladder
    assert degrees == [0, 0, 1, 1]  # span(1, g) < H4

    for i in range(h4.dim):
        coords = basis.coords({i: ONE})
        rebuilt = {}
        for r, c in coords.items():
            for t, val in basis.vectors[r].items():
                rebuilt[t] = rebuilt.get(t, ZERO) + val * c
        rebuilt = {k: v for k, v in rebuilt.items() if not v.is_zero()}
        assert vec_equal(rebuilt, {i: ONE})
