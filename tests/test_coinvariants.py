import pytest

from braidpbw.braided_space import is_symmetric
from braidpbw.coinvariants import (
    bosonization_check,
    check_braiding_collapse,
    compute_R,
    is_central,
    is_cocentral,
    projection_pi,
)
from braidpbw.corpus import solvable_pair
from braidpbw.filtration import (
    associated_graded,
    hopf_filtration,
    subspace_from_indices,
)
from braidpbw.findim_hopf import commutator_table, run_all_checks
from braidpbw.multilinear import vec_equal
from braidpbw.reporting import InputError
from braidpbw.scalars import MINUS_ONE, ONE, root_of_unity
from reference_checkers import ad_eval, pi_map


@pytest.fixture(scope="module")
def gr_h4(h4):
    return associated_graded(h4, hopf_filtration(h4, subspace_from_indices(h4, (0, 1))))


@pytest.fixture(scope="module")
def gr_taft(taft):
    return associated_graded(taft, hopf_filtration(taft, subspace_from_indices(taft, (0, 1, 2))))


@pytest.fixture(scope="module")
def coinv_h4(gr_h4):
    return compute_R(gr_h4)


@pytest.fixture(scope="module")
def coinv_taft(gr_taft):
    return compute_R(gr_taft)


def yline_indices(h):
    return tuple(i for i, nm in enumerate(h.names)
                 if nm == "1" or (nm.startswith("y") and "x" not in nm))


@pytest.fixture(scope="module")
def gr_yline():
    h = solvable_pair()
    return associated_graded(h, hopf_filtration(h, subspace_from_indices(h, yline_indices(h))))


def test_projection_is_morphism(gr_h4, gr_taft):
    for gr in (gr_h4, gr_taft):
        assert projection_pi(gr).ok


def test_pi_map_values(gr_h4):
    i1 = gr_h4.names.index("1")
    ig = gr_h4.names.index("g")
    ix = gr_h4.names.index("x")
    assert pi_map(gr_h4, {i1: ONE}) == {i1: ONE}
    assert pi_map(gr_h4, {ig: ONE}) == {i1: ONE}
    assert pi_map(gr_h4, {ix: ONE}) == {ix: ONE}


def test_compute_R_h4(coinv_h4):
    r = coinv_h4.algebra
    assert r.dim == 2
    assert r.names == ("1", "x")
    assert r.grading == (0, 1)
    assert coinv_h4.kernel_is_left_ideal
    assert coinv_h4.coradical_matches_grading
    ix = r.names.index("x")
    assert r.braiding.rows[ix][ix] == {(ix, ix): MINUS_ONE}
    assert is_symmetric(r.braiding)


def test_compute_R_taft(coinv_taft):
    r = coinv_taft.algebra
    assert r.dim == 3
    assert r.names == ("1", "x", "x^2")
    ix = r.names.index("x")
    assert r.braiding.rows[ix][ix] == {(ix, ix): root_of_unity(3)}
    assert not is_symmetric(r.braiding)
    assert coinv_taft.kernel_is_left_ideal
    assert coinv_taft.coradical_matches_grading


def test_R_is_whole_gr_for_trivial_K(corpus):
    h = corpus["poly_line"]
    gr = associated_graded(h, hopf_filtration(h, subspace_from_indices(h, (0,))))
    coinv = compute_R(gr)
    assert coinv.algebra.dim == gr.dim
    # the coproduct of R agrees with the one of gr
    for i in range(gr.dim):
        assert vec_equal(coinv.algebra.comult[i], gr.comult[i])
    # the coaction collapses to 1 (x) r
    assert len(coinv.k_indices) == 1
    for r in range(coinv.algebra.dim):
        assert coinv.coaction[r] == {(0, r): ONE}


def test_q_lifts_generate_R_degreewise(h4, taft, corpus):
    # homogeneous representatives of the indecomposables generate R:
    # iterated products of the generators span every graded slice
    from braidpbw.linalg import Subspace
    from braidpbw.pbw import compute_Q

    def check(coinv):
        r = coinv.algebra
        q = compute_Q(coinv.algebra)
        frontier = [r.unit]
        maxdeg = r.max_degree()
        for n in range(1, maxdeg + 1):
            new = []
            for vec in frontier:
                for g in q.indices:
                    prod = r.multiply(vec, {g: ONE})
                    if prod:
                        new.append(prod)
            frontier = new
            rows = [v for v in frontier if all(r.degree(i) == n for i in v)]
            span = Subspace.span(r.dim, rows)
            assert span.dim == len(r.degree_indices(n)), n

    for coinv_source in (
        compute_R(associated_graded(h4, hopf_filtration(h4, subspace_from_indices(h4, (0, 1))))),
        compute_R(associated_graded(taft, hopf_filtration(taft, subspace_from_indices(taft, (0, 1, 2))))),
    ):
        check(coinv_source)


def test_R_passes_bialgebra_checks(coinv_h4, coinv_taft):
    for coinv in (coinv_h4, coinv_taft):
        for name, report in run_all_checks(coinv.algebra).items():
            assert report.ok, f"{name}:\n{report.summary()}"


def test_ad_action_values(gr_h4, coinv_h4):
    ig = gr_h4.names.index("g")
    i1 = gr_h4.names.index("1")
    r = coinv_h4.algebra
    ix = r.names.index("x")
    k_pos = coinv_h4.k_indices.index
    assert coinv_h4.action[k_pos(i1)][ix] == {ix: ONE}
    assert coinv_h4.action[k_pos(ig)][ix] == {ix: MINUS_ONE}


def test_ad_taft_value(gr_taft, coinv_taft):
    ig = gr_taft.names.index("g")
    r = coinv_taft.algebra
    ix = r.names.index("x")
    assert coinv_taft.action[coinv_taft.k_indices.index(ig)][ix] == {ix: root_of_unity(3)}


def test_ad_eval_unit_is_identity(gr_h4):
    i1 = gr_h4.names.index("1")
    for i in range(gr_h4.dim):
        assert vec_equal(ad_eval(gr_h4, {i1: ONE}, {i: ONE}), {i: ONE})


def test_coaction_values(coinv_h4, gr_h4):
    r = coinv_h4.algebra
    i1r = r.names.index("1")
    ix = r.names.index("x")
    # delta(1) = 1 (x) 1 and delta(x) = g (x) x
    k_names = [gr_h4.names[k] for k in coinv_h4.k_indices]
    assert coinv_h4.coaction[i1r] == {(k_names.index("1"), i1r): ONE}
    assert coinv_h4.coaction[ix] == {(k_names.index("g"), ix): ONE}


def test_centrality_flags(gr_h4, coinv_h4):
    assert not is_central(gr_h4, coinv_h4.k_indices, commutator_table(gr_h4))
    assert not is_cocentral(gr_h4, coinv_h4.k_indices)


def test_identity_map_central_on_commutative(corpus):
    h = corpus["poly_plane"]
    assert is_central(h, range(h.dim), commutator_table(h))
    assert is_cocentral(h, range(h.dim))


def test_collapse_trivial_K(corpus):
    for name in ("poly_line", "super_line", "color_plane", "solvable_pair"):
        h = corpus[name]
        gr = associated_graded(h, hopf_filtration(h, subspace_from_indices(h, (0,))))
        coinv = compute_R(gr)
        report = check_braiding_collapse(gr, coinv, commutator_table(gr))
        assert report["status"] == "confirmed", name
        assert report["c_r_equals_c"] and report["graded_morphism_identity"]


def test_collapse_central_yline(gr_yline):
    coinv = compute_R(gr_yline)
    report = check_braiding_collapse(gr_yline, coinv, commutator_table(gr_yline))
    assert report["i_central"]
    assert report["status"] == "confirmed"
    assert report["c_r_equals_c"]
    # R is the polynomial line on the class of x
    assert [len(coinv.algebra.degree_indices(n)) for n in range(7)] == [1] * 7


def test_collapse_h4_vacuous_and_different(gr_h4, coinv_h4):
    report = check_braiding_collapse(gr_h4, coinv_h4, commutator_table(gr_h4))
    assert not report["hypothesis_holds"]
    assert not report["c_r_equals_c"]
    assert report["status"] == "vacuous_differs"
    assert report["graded_morphism_identity"]


def test_bosonization(coinv_h4, coinv_taft):
    ok4, per4 = bosonization_check(coinv_h4)
    assert ok4 and all(p["bijective"] for p in per4)
    assert [p["dim"] for p in per4] == [2, 2]
    okt, pert = bosonization_check(coinv_taft)
    assert okt
    assert [p["dim"] for p in pert] == [3, 3, 3]


def test_bosonization_trivial_K(corpus):
    h = corpus["super_line"]
    gr = associated_graded(h, hopf_filtration(h, subspace_from_indices(h, (0,))))
    ok, per = bosonization_check(compute_R(gr))
    assert ok


def test_bosonization_truncated_central(gr_yline):
    ok, per = bosonization_check(compute_R(gr_yline))
    assert ok
    assert [p["dim"] for p in per] == [7, 6, 5, 4, 3, 2, 1]


def test_compute_R_requires_antipode(coinv_h4):
    r = coinv_h4.algebra  # has no antipode stored
    with pytest.raises(InputError):
        compute_R(r)


def test_coradical_check_lets_engine_errors_through(coinv_h4, monkeypatch):
    import braidpbw.coinvariants as coinvariants

    def broken(h, k):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(coinvariants, "wedge_ladder", broken)
    with pytest.raises(RuntimeError, match="engine bug"):
        coinvariants._degree_filtration_is_coradical(coinv_h4.algebra)


def test_coradical_check_is_false_on_filtration_error(coinv_h4, monkeypatch):
    import braidpbw.coinvariants as coinvariants
    from braidpbw.filtration import FiltrationError

    def not_increasing(h, k):
        raise FiltrationError("wedge step is not increasing")

    monkeypatch.setattr(coinvariants, "wedge_ladder", not_increasing)
    assert coinvariants._degree_filtration_is_coradical(coinv_h4.algebra) is False


def test_coradical_check_is_false_when_degree_zero_exceeds_the_unit(gr_h4):
    # gr of the Sweedler algebra has degree-zero part span(1, g): the wedge
    # ladder of the unit line differs from the degree filtration at step 0
    from braidpbw.coinvariants import _degree_filtration_is_coradical

    assert len(gr_h4.degree_indices(0)) == 2
    assert _degree_filtration_is_coradical(gr_h4) is False
