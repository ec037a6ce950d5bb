import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpbw import linalg
from braidpbw.linalg import (
    Coordinates,
    SpanError,
    Subspace,
    echelon,
    kernel,
    lead_table,
    rank,
    rref,
)
from braidpbw.multilinear import vadd_into, vec_equal
from braidpbw.scalars import ZERO, Scalar, euler_phi


def S(x):
    return Scalar.from_rational(Fraction(x))


def mat(rows):
    return [[S(x) for x in row] for row in rows]


def sparse(row):
    return {i: c for i, c in enumerate(row) if not c.is_zero()}


def vecs(rows):
    return [sparse(r) for r in mat(rows)]


def dot(f, v):
    acc = ZERO
    for i, c in v.items():
        if i in f:
            acc = acc + f[i] * c
    return acc


small_matrices = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
    min_size=1, max_size=4,
)


def test_rref_canonical_form():
    red, piv = rref(mat([[2, 4, 0], [1, 2, 1]]))
    assert piv == [0, 2]
    assert red == mat([[1, 2, 0], [0, 0, 1]])


def test_rref_drops_zero_rows():
    red, piv = rref(mat([[0, 0], [1, 1], [2, 2]]))
    assert len(red) == 1 and piv == [0]


@settings(max_examples=50, deadline=None)
@given(small_matrices)
def test_rref_idempotent_and_rank(rows):
    m = mat(rows)
    red, piv = rref(m)
    red2, piv2 = rref(red)
    assert piv == piv2
    assert all(all((a - b).is_zero() for a, b in zip(r1, r2)) for r1, r2 in zip(red, red2))
    assert rank(m) == len(piv)


def brute_kernel_check(images, n):
    """Every kernel vector is annihilated, and dim = n - rank by dense rref."""
    null = kernel(images)
    for x in null.rows:
        total = {}
        for i, c in x.items():
            vadd_into(total, images[i], c)
        assert not total
    keys = sorted({k for img in images for k in img})
    dense = [[img.get(k, ZERO) for k in keys] for img in images]
    assert null.dim == n - (rank(dense) if keys else 0)
    assert null == Subspace.span(n, null.rows)  # already canonical


@settings(max_examples=50, deadline=None)
@given(small_matrices)
def test_kernel_annihilates(rows):
    # the kernel of x |-> (row . x) for each row, as images of basis vectors
    m = mat(rows)
    brute_kernel_check([{r: row[i] for r, row in enumerate(m)} for i in range(3)], 3)


def test_left_nullspace():
    # {v : sum_i v_i m[i] = 0} is the kernel of e_i |-> m[i]
    null = kernel(vecs([[1, 0], [2, 0], [0, 1]]))
    assert null.dim == 1
    assert [str(null.rows[0].get(i, ZERO)) for i in range(3)] == ["1", "-1/2", "0"]
    assert kernel([{}, {0: ZERO}]) == Subspace.span(2, vecs([[1, 0], [0, 1]]))


@pytest.mark.parametrize("conductor", [1, 12])
@pytest.mark.parametrize("seed", range(5))
def test_kernel_against_brute_force(conductor, seed):
    rng = random.Random(seed)
    n = 7
    # images keyed by pairs, with dependencies forced by combining earlier images
    images = []
    for i in range(n):
        if i >= 2 and rng.random() < 0.5:
            img = {}
            for j in rng.sample(range(i), 2):
                vadd_into(img, images[j], random_scalar(rng, conductor))
        else:
            img = {(rng.randrange(3), rng.randrange(2)): random_scalar(rng, conductor)
                   for _ in range(rng.randint(0, 3))}
        images.append(img)
    brute_kernel_check(images, n)


def test_echelon_matches_dense_rref():
    rng = random.Random(7)
    for conductor in (1, 12):
        for _ in range(5):
            rows = [random_vector(rng, conductor, 5) for _ in range(4)]
            red, piv = echelon(rows)
            dense_red, dense_piv = rref([[r.get(i, ZERO) for i in range(5)] for r in rows])
            assert piv == dense_piv
            assert all(vec_equal(a, sparse(b)) for a, b in zip(red, dense_red))


def test_subspace_membership_and_functionals():
    sub = Subspace.span(3, vecs([[1, 1, 0], [0, 0, 1]]))
    assert sub.dim == 2
    assert sub.contains_vector({0: S(2), 1: S(2), 2: S(5)})
    assert not sub.contains_vector({0: S(1)})
    assert vec_equal(sub.reduce({0: S(1), 2: S(3)}), {1: S(-1)})
    for f in sub.functionals():
        for row in sub.rows:
            assert dot(f, row).is_zero()


def test_subspace_coords_roundtrip():
    sub = Subspace.span(3, vecs([[1, 2, 0], [0, 0, 3]]))
    v = {0: S(2), 1: S(4), 2: S(6)}
    coords = sub.coords(v)
    assert coords is not None
    rebuilt = {}
    for j, c in coords.items():
        vadd_into(rebuilt, sub.rows[j], c)
    assert vec_equal(rebuilt, v)
    assert sub.coords({0: S(1)}) is None


def random_scalar(rng, conductor):
    if conductor == 1:
        return Scalar.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return Scalar.from_poly(conductor, [rng.randint(-2, 2) for _ in range(euler_phi(conductor))])


def random_vector(rng, conductor, dim):
    vec = {}
    for i in rng.sample(range(dim), rng.randint(1, dim)):
        c = random_scalar(rng, conductor)
        if not c.is_zero():
            vec[i] = c
    return vec


def combine(terms, dim):
    """sum of c * vec over (c, vec) terms, as a sparse vector"""
    out = {}
    for c, vec in terms:
        vadd_into(out, vec, c)
    return out


def independent_basis(rng, conductor, dim, size):
    """The RREF rows of ``size`` random independent vectors: a basis in
    echelon form, as Coordinates takes."""
    while True:
        basis = echelon(random_vector(rng, conductor, dim) for _ in range(size))[0]
        if len(basis) == size:
            return basis


@pytest.mark.parametrize("conductor", [1, 12])
@pytest.mark.parametrize("seed", range(5))
def test_coordinates_against_rebuild_oracle(conductor, seed):
    rng = random.Random(seed)
    dim, size = 6, 4
    basis = independent_basis(rng, conductor, dim, size)
    coords = Coordinates(basis)
    for _ in range(5):
        v = combine([(random_scalar(rng, conductor), b) for b in basis], dim)
        c = coords.coords(v)
        assert vec_equal(combine([(c[r], basis[r]) for r in c], dim), v)
    # a 2-tensor of span elements: coords_pair agrees with coords on each leg
    w, expected = {}, {}
    for _ in range(3):
        s = random_scalar(rng, conductor)
        u = combine([(random_scalar(rng, conductor), b) for b in basis], dim)
        x = combine([(random_scalar(rng, conductor), b) for b in basis], dim)
        vadd_into(w, {(i, j): a * b for i, a in u.items() for j, b in x.items()}, s)
        cu, cx = coords.coords(u), coords.coords(x)
        vadd_into(expected, {(r, t): a * b for r, a in cu.items() for t, b in cx.items()}, s)
    assert vec_equal(coords.coords_pair(w), expected)
    # outside the span: rank goes up by one
    while True:
        outside = random_vector(rng, conductor, dim)
        if len(echelon(basis + [outside])[0]) == size + 1:
            break
    with pytest.raises(SpanError):
        coords.coords(outside)
    with pytest.raises(SpanError):
        coords.coords_pair({(i, 0): c for i, c in outside.items()})


def _exact(vec):
    return [(k, c.conductor, c.num, c.den) for k, c in vec.items()]


@pytest.mark.parametrize("conductor", [1, 12])
@pytest.mark.parametrize("seed", range(3))
def test_monomial_coordinates_match_elimination(conductor, seed):
    """A monomial basis is an echelon basis with empty tails: the one solve
    gives a relabel and a scale, key order kept, and a 2-tensor's
    coefficients are those of its legs."""
    rng = random.Random(seed)
    dim = 7
    keys = rng.sample(range(dim), 5)  # shuffled, so positions and keys disagree
    basis = []
    for k in keys:
        c = ZERO
        while c.is_zero():
            c = random_scalar(rng, conductor)
        basis.append({k: c})
    outside_keys = [k for k in range(dim) if k not in keys]
    coords = Coordinates(basis)
    for _ in range(6):
        v = {k: random_scalar(rng, conductor) for k in rng.sample(keys, rng.randint(0, 5))}
        v.update({k: ZERO for k in rng.sample(range(dim), 2)})  # exact zeros are ignored
        scaled = [(keys.index(k), v[k] * basis[keys.index(k)][k].inverse())
                  for k in sorted(v) if not v[k].is_zero()]
        assert _exact(coords.coords(v)) == _exact(dict(scaled))
        w = {(i, j): a * b for i, a in v.items() for j, b in reversed(list(v.items()))}
        legs = coords.coords(v)
        assert sorted(_exact(coords.coords_pair(w))) == sorted(_exact(
            {(r, t): a * b for r, a in legs.items() for t, b in legs.items()}))
    with pytest.raises(SpanError):
        coords.coords({keys[0]: S(1), outside_keys[1]: S(2)})


def _later_leads_basis(rng, conductor):
    """An echelon basis over keys 0..6 whose tails hold later leads: row r
    leads at key 2r with a nonzero lead coefficient, and its tail reaches the
    leads of the rows after it and the free odd keys."""
    basis = []
    for r in range(3):
        row = {2 * r: S(rng.choice([1, 2, -3]))}
        for k in range(2 * r + 1, 7):
            c = random_scalar(rng, conductor)
            if not c.is_zero():
                row[k] = c
        row[2 * r + 2] = S(1)  # the next row's lead, or the free key 6
        basis.append(row)
    return basis


def _non_echelon_basis(rng, conductor):
    """Three independent vectors, the first two with the same least key."""
    while True:
        basis = [random_vector(rng, conductor, 6) for _ in range(3)]
        for vec in basis[:2]:
            vec[0] = S(rng.choice([1, 2, -3]))
        if len(echelon(basis)[0]) == 3:
            return basis


def _explicit_zero_basis(rng, conductor):
    """An echelon basis with an exact zero written before each lead."""
    basis = _later_leads_basis(rng, conductor)
    return [{**({2 * r - 1: ZERO} if r else {}), **row, 5: row.get(5, ZERO)}
            for r, row in enumerate(basis)]


@pytest.mark.parametrize("kind", ["later_leads", "non_echelon", "explicit_zeros"])
@pytest.mark.parametrize("conductor", [1, 12])
@pytest.mark.parametrize("seed", range(3))
def test_solve_against_rebuild_oracle(kind, conductor, seed):
    """Coordinates rebuild the vector on every echelon basis and refuse an
    independent basis that is not in echelon form; over the later-leads
    basis a vector without the lead 2 still gets a coefficient there,
    brought in by the tail of row 0."""
    rng = random.Random(seed)
    basis = {"later_leads": _later_leads_basis, "non_echelon": _non_echelon_basis,
             "explicit_zeros": _explicit_zero_basis}[kind](rng, conductor)
    if kind == "non_echelon":
        with pytest.raises(SpanError, match="not in echelon form"):
            Coordinates(basis)
        return
    coords = Coordinates(basis)
    nonzero = [{k: c for k, c in b.items() if not c.is_zero()} for b in basis]
    for _ in range(5):
        want = {r: random_scalar(rng, conductor) for r in range(3)}
        v = combine([(c, nonzero[r]) for r, c in want.items()], 7)
        got = coords.coords(v)
        assert vec_equal(got, {r: c for r, c in want.items() if not c.is_zero()})
        assert vec_equal(combine([(c, nonzero[r]) for r, c in got.items()], 7), v)
    if kind == "later_leads":
        # row 0 minus row 1 over its lead coefficient has no entry at row 1's
        # lead, 2; eliminating row 0 brings it in
        b = -basis[1][2].inverse()
        v = combine([(S(1), basis[0]), (b, basis[1])], 7)
        assert 2 not in v
        assert vec_equal(coords.coords(v), {0: S(1), 1: b})


def test_lead_table_refuses_a_repeated_lead_or_a_zero_vector():
    for rows in ([{0: S(1)}, {0: S(2), 1: S(1)}], [{1: S(1)}, {}], [{0: S(1)}, {2: ZERO}]):
        with pytest.raises(SpanError):
            lead_table(rows)
    for vectors in ([{0: S(1)}, {}], [{0: S(1)}, {1: ZERO}], [{0: S(1), 1: S(1)}, {0: S(2), 1: S(2)}]):
        with pytest.raises(SpanError):
            Coordinates(vectors)


def test_subspace_and_coordinates_share_one_solve(monkeypatch):
    calls = []
    real = linalg.solve

    def counting(leads, vector):
        calls.append(vector)
        return real(leads, vector)

    monkeypatch.setattr(linalg, "solve", counting)
    sub = Subspace.span(3, vecs([[1, 2, 0], [0, 0, 3]]))
    v = {0: S(2), 1: S(4), 2: S(6)}
    assert sub.coords(v) == {0: S(2), 1: S(6)}
    assert sub.contains_vector(v) and sub.reduce({1: S(1)}) == {1: S(1)}
    assert Coordinates(list(sub.rows)).coords(v) == {0: S(2), 1: S(6)}
    assert len(calls) == 4


def test_coordinates_reject_dependent_basis():
    with pytest.raises(SpanError):
        Coordinates([{0: S(1), 1: S(2)}, {0: S(2), 1: S(4)}])


@pytest.mark.parametrize("vectors, standard", [
    ([{0: 1}, {1: 1}, {2: 1}], True),
    ([{0: 1}, {1: 1}], True),
    ([{1: 1}, {0: 1}, {2: 1}], False),
    ([{0: 2}, {1: 2}, {2: 2}], False),
    ([{0: 1}, {1: 1, 2: 0}], False),
    ([{0: 1}, {0: 1}], None),
], ids=["identity", "prefix", "permutation", "scaled-by-2", "explicit-zero", "repeated"])
def test_standard_basis_truth_table(vectors, standard):
    """Standard: vector r is e_r, also as a prefix of a larger space.  A
    repeated vector is no basis at all."""
    vectors = [{k: S(c) for k, c in v.items()} for v in vectors]
    if standard is None:
        with pytest.raises(SpanError):
            Coordinates(vectors)
    else:
        assert Coordinates(vectors).standard is standard


def test_prefix_basis_refuses_keys_past_it_as_the_monomial_path_does():
    prefix = Coordinates([{0: S(1)}, {1: S(1)}])
    scaled = Coordinates([{0: S(2)}, {1: S(2)}])  # monomial, not standard
    assert prefix.standard and not scaled.standard
    for bad in ({2: S(1)}, {0: S(1), 4: S(3)}):
        messages = set()
        for coords in (prefix, scaled):
            with pytest.raises(SpanError) as err:
                coords.coords(bad)
            messages.add(str(err.value))
        assert len(messages) == 1
    for bad in ({(0, 3): S(1)}, {(3, 0): S(1)}, {(1, 1): S(1), (4, 4): S(2)}):
        messages = set()
        for coords in (prefix, scaled):
            with pytest.raises(SpanError) as err:
                coords.coords_pair(bad)
            messages.add(str(err.value))
        assert len(messages) == 1
    # a zero coefficient past the basis is no entry, on either path
    assert prefix.coords({0: S(3), 4: ZERO}) == {0: S(3)}
    assert prefix.coords_pair({(0, 1): S(3), (4, 0): ZERO}) == {(0, 1): S(3)}


def test_standard_coordinates_drop_zero_coefficients():
    basis = Coordinates([{i: S(1)} for i in range(3)])
    out = basis.coords({2: S(5), 0: ZERO, 1: S(-1)})
    assert out == {2: S(5), 1: S(-1)} and 0 not in out
    pair = basis.coords_pair({(0, 1): ZERO, (1, 2): S(2)})
    assert pair == {(1, 2): S(2)} and (0, 1) not in pair
    assert basis.coords({1: ZERO}) == {} and basis.coords_pair({}) == {}


@pytest.mark.parametrize("conductor", [1, 12])
@pytest.mark.parametrize("seed", range(3))
def test_standard_coordinates_match_the_monomial_path(conductor, seed):
    """On the standard basis the entries are the coordinates: the same as
    over the reversed basis (a monomial basis), relabelled r -> m-1-r."""
    rng = random.Random(seed)
    dim, m = 7, 5
    fast = Coordinates([{r: S(1)} for r in range(m)])
    rev = Coordinates([{r: S(1)} for r in reversed(range(m))])
    assert fast.standard and not rev.standard
    for _ in range(6):
        v = random_vector(rng, conductor, m)
        v.update({k: ZERO for k in rng.sample(range(dim), 2)})  # exact zeros are ignored
        relabelled = {m - 1 - r: c for r, c in rev.coords(v).items()}
        assert sorted(_exact(fast.coords(v))) == sorted(_exact(relabelled))
        w = {(i, j): a * b for i, a in v.items() for j, b in reversed(list(v.items()))}
        relabelled = {(m - 1 - r, m - 1 - s): c for (r, s), c in rev.coords_pair(w).items()}
        assert sorted(_exact(fast.coords_pair(w))) == sorted(_exact(relabelled))


def test_subspace_equality_and_sum():
    a = Subspace.span(2, vecs([[1, 1]]))
    b = Subspace.span(2, vecs([[2, 2]]))
    assert a == b
    c = Subspace.span(2, [*a.rows, *vecs([[1, 0]])])
    assert c.dim == 2
