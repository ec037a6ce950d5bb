import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpbw.linalg import (
    Coordinates,
    SpanError,
    Subspace,
    dense_of,
    invert_matrix,
    kron_rows,
    left_nullspace,
    matrix_kernel,
    rank,
    rref,
    sparse_of,
)
from braidpbw.multilinear import vadd_into, vec_equal
from braidpbw.scalars import ZERO, Scalar, euler_phi


def S(x):
    return Scalar.from_rational(Fraction(x))


def mat(rows):
    return [[S(x) for x in row] for row in rows]


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


@settings(max_examples=50, deadline=None)
@given(small_matrices)
def test_kernel_annihilates(rows):
    m = mat(rows)
    for vec in matrix_kernel(m, 3):
        for row in m:
            acc = ZERO
            for a, b in zip(row, vec):
                acc = acc + a * b
        assert acc.is_zero()
    assert len(matrix_kernel(m, 3)) == 3 - rank(m)


def test_left_nullspace():
    m = mat([[1, 0], [2, 0], [0, 1]])
    null = left_nullspace(m, 2)
    assert len(null) == 1
    v = null[0]
    assert [str(x) for x in v] == ["-2", "1", "0"]


def test_invert_matrix():
    m = mat([[2, 1], [1, 1]])
    inv = invert_matrix(m)
    prod = [[sum((a * b for a, b in zip(row, col)), ZERO)
             for col in zip(*inv)] for row in m]
    assert prod[0][0].is_one() and prod[1][1].is_one()
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


def test_subspace_membership_and_functionals():
    sub = Subspace.span(3, mat([[1, 1, 0], [0, 0, 1]]))
    assert sub.dim == 2
    assert sub.contains_vector(mat([[2, 2, 5]])[0])
    assert not sub.contains_vector(mat([[1, 0, 0]])[0])
    for f in sub.functionals():
        for row in sub.rows:
            acc = ZERO
            for a, b in zip(f, row):
                acc = acc + a * b
            assert acc.is_zero()


def test_subspace_coords_roundtrip():
    sub = Subspace.span(3, mat([[1, 2, 0], [0, 0, 3]]))
    v = mat([[2, 4, 6]])[0]
    coords = sub.coords(sparse_of(v))
    assert coords is not None
    rebuilt = [ZERO] * 3
    for j, c in coords.items():
        rebuilt = [r + c * x for r, x in zip(rebuilt, sub.rows[j])]
    assert all((a - b).is_zero() for a, b in zip(rebuilt, v))
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
    out = [ZERO] * dim
    for c, vec in terms:
        for i, x in vec.items():
            out[i] = out[i] + c * x
    return sparse_of(out)


def independent_basis(rng, conductor, dim, size):
    while True:
        basis = [random_vector(rng, conductor, dim) for _ in range(size)]
        if rank([dense_of(v, dim) for v in basis]) == size:
            return basis


@pytest.mark.parametrize("conductor", [1, 12])
@pytest.mark.parametrize("seed", range(5))
def test_coordinates_against_rebuild_oracle(conductor, seed):
    rng = random.Random(seed)
    dim, size = 6, 4
    basis = independent_basis(rng, conductor, dim, size)
    coords = Coordinates(dim, basis)
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
        if rank([dense_of(v, dim) for v in basis + [outside]]) == size + 1:
            break
    with pytest.raises(SpanError):
        coords.coords(outside)
    with pytest.raises(SpanError):
        coords.coords_pair({(i, 0): c for i, c in outside.items()})


def test_coordinates_reject_dependent_basis():
    with pytest.raises(SpanError):
        Coordinates(3, [{0: S(1), 1: S(2)}, {0: S(2), 1: S(4)}])


def test_subspace_equality_and_sum():
    a = Subspace.span(2, mat([[1, 1]]))
    b = Subspace.span(2, mat([[2, 2]]))
    assert a == b
    c = a.add(Subspace.span(2, mat([[1, 0]])))
    assert c.dim == 2


def test_coordinate_columns():
    assert Subspace.span(3, mat([[0, 1, 0], [1, 0, 0]])).coordinate_columns() == {0, 1}
    assert Subspace.span(3, mat([[1, 1, 0]])).coordinate_columns() is None


def test_kron_rows():
    rows = kron_rows(mat([[1, 2]]), mat([[0, 3]]))
    assert [[str(x) for x in r] for r in rows] == [["0", "3", "0", "6"]]
