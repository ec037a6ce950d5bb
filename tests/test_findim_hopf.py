import re

import pytest

from braidpbw.braided_space import is_categorical
from braidpbw.coinvariants import is_central
from braidpbw.findim_hopf import (
    StructureBialgebra,
    check_antipode,
    check_braided_algebra,
    check_commutator_coproduct_all,
    commutator_table,
    run_all_checks,
)
from braidpbw.linalg import kernel
from braidpbw.scalars import MINUS_ONE, ONE, Scalar
from reference_checkers import (
    check_commutator_coproduct,
    commutator,
    gate_ok,
    is_c_cocommutative,
)


def test_corpus_passes_all_checkers(corpus):
    for name, h in corpus.items():
        for checker_name, report in run_all_checks(h).items():
            assert report.ok, f"{name}/{checker_name}:\n{report.summary()}"


def _mutate(h: StructureBialgebra, **overrides) -> StructureBialgebra:
    fields = dict(
        names=h.names, unit=h.unit, mult=h.mult, counit=h.counit,
        comult=h.comult, braiding=h.braiding, antipode=h.antipode,
        grading=h.grading, truncation=h.truncation, trunc_grading=h.trunc_grading,
    )
    fields.update(overrides)
    return StructureBialgebra(**fields)


def test_mutated_product_fails_algebra_or_bialgebra_check(h4):
    # set x*g := +gx instead of -gx
    mult = [list(row) for row in h4.mult]
    ix, ig, igx = h4.names.index("x"), h4.names.index("g"), h4.names.index("gx")
    mult[ix] = list(mult[ix])
    mult[ix][ig] = {igx: ONE}
    bad = _mutate(h4, mult=tuple(tuple(row) for row in mult))
    reports = run_all_checks(bad)
    assert not all(r.ok for r in reports.values())
    assert not reports["algebra"].ok or not reports["bialgebra"].ok


def test_mutated_coproduct_fails_bialgebra_check(h4):
    # swap the skew-primitive coproduct of x to x(x)g + 1(x)x
    comult = list(h4.comult)
    i1, ig, ix = h4.names.index("1"), h4.names.index("g"), h4.names.index("x")
    comult[ix] = {(ix, ig): ONE, (i1, ix): ONE}
    bad = _mutate(h4, comult=tuple(comult))
    reports = run_all_checks(bad)
    assert reports["algebra"].ok
    assert not reports["bialgebra"].ok or not reports["coalgebra"].ok


def test_mutated_antipode_fails_with_witness(h4):
    antipode = list(h4.antipode)
    ix = h4.names.index("x")
    antipode[ix] = {ix: MINUS_ONE}
    bad = _mutate(h4, antipode=tuple(antipode))
    report = check_antipode(bad)
    assert not report.ok
    assert report.violations[0].witness


def test_missing_antipode_raises(h4):
    bad = _mutate(h4, antipode=None)
    with pytest.raises(ValueError):
        check_antipode(bad)


def test_commutator_examples(h4, corpus):
    kc2 = corpus["kc2"]
    ig = kc2.names.index("g")
    assert commutator(kc2, {ig: ONE}, {ig: ONE}) == {}
    ig, ix, igx = h4.names.index("g"), h4.names.index("x"), h4.names.index("gx")
    out = commutator(h4, {ig: ONE}, {ix: ONE})
    assert out == {igx: Scalar.from_rational(2)}
    # the engine's commutator table holds the same brackets
    assert commutator_table(kc2)[ig][ig] == {}
    assert commutator_table(h4)[ig][ix] == out


def test_c_commutativity_flags(corpus, h4):
    def c_commutative(h):
        return is_central(h, range(h.dim))

    assert c_commutative(corpus["poly_plane"])
    assert is_c_cocommutative(corpus["poly_plane"])
    assert not c_commutative(h4)
    assert c_commutative(corpus["super_line"])
    assert c_commutative(corpus["color_plane"])
    assert not c_commutative(corpus["solvable_pair"])


def test_c_commutative_iff_all_commutators_vanish(corpus):
    for name in ("poly_plane", "super_line", "color_plane"):
        h = corpus[name]
        for i in range(h.dim):
            for j in range(h.dim):
                if not gate_ok(h, i, j):
                    continue
                assert commutator(h, {i: ONE}, {j: ONE}) == {}


def test_commutator_coproduct_identity_exhaustive(corpus):
    for name, h in corpus.items():
        report = check_commutator_coproduct_all(h)
        assert report.ok, f"{name}:\n{report.summary()}"


def test_commutator_coproduct_witnesses_name_basis_tensors(h4):
    # the skew-primitive coproduct of x swapped to x(x)g + 1(x)x, as above
    comult = list(h4.comult)
    i1, ig, ix = h4.names.index("1"), h4.names.index("g"), h4.names.index("x")
    comult[ix] = {(ix, ig): ONE, (i1, ix): ONE}
    bad = _mutate(h4, comult=tuple(comult))
    report = check_commutator_coproduct_all(bad)
    assert not report.ok
    term = re.compile(r"(\(-?\d+\)\*)?(\w+)\(x\)(\w+)")
    for v in report.violations:
        assert v.lhs != v.rhs
        for side in (v.lhs, v.rhs):
            if side == "0":
                continue
            for part in side.split(" + "):
                match = term.fullmatch(part)
                assert match and {match[2], match[3]} <= set(h4.names), side
    assert report.violations[0].witness == ("g", "x")
    assert report.violations[0].lhs == "(2)*1(x)gx + (2)*gx(x)g"
    assert report.violations[0].rhs == "(2)*g(x)gx + (2)*gx(x)1"


def test_commutator_coproduct_single_pairs(h4, corpus):
    ig, ix = h4.names.index("g"), h4.names.index("x")
    assert check_commutator_coproduct(h4, {ig: ONE}, {ix: ONE})
    sl = corpus["super_line"]
    ith = sl.names.index("th")
    assert check_commutator_coproduct(sl, {ith: ONE}, {ith: ONE})


def test_counit_kernel_is_categorical(corpus):
    for name, h in corpus.items():
        sub = kernel([{0: c} for c in h.counit])
        assert sub.dim == h.dim - 1, name
        assert all(h.counit_of(v).is_zero() for v in sub.rows), name
        assert is_categorical(h.braiding, sub), name


def test_gate_skips_above_truncation(corpus):
    h = corpus["solvable_pair"]
    report = check_braided_algebra(h)
    assert report.skipped > 0
    assert "degree-aware" in report.note


def test_validation_report_rendering(h4):
    report = check_braided_algebra(h4)
    assert "braided algebra" in report.summary()
    doc = report.to_json()
    assert doc["ok"] and doc["checked"] > 0
