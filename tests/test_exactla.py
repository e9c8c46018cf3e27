from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlie.exactla import (
    Matrix,
    Subspace,
    contains,
    kernel_basis,
    rank,
    rref,
    subspace_intersect,
    subspace_sum,
    vec_from_list,
)

F = Fraction


def dense(m):
    return [[F(x) for x in row] for row in m.to_dense()]


# --- rref -------------------------------------------------------------------

def test_rref_zero_matrix():
    m = Matrix(3, 3)
    r, rk = rref(m)
    assert rk == 0
    assert r.entries == {}


def test_rref_identity():
    m = Matrix.identity(2)
    r, rk = rref(m)
    assert rk == 2
    assert r == m


def test_rref_dependent_rows():
    m = Matrix.from_dense([[1, 2], [2, 4]])
    r, rk = rref(m)
    assert rk == 1
    assert dense(r) == [[F(1), F(2)], [F(0), F(0)]]


def test_rref_preserves_row_space():
    m = Matrix.from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r, rk = rref(m)
    assert rk == 2
    assert Subspace.from_vectors(3, m.row_vecs()) == Subspace.from_vectors(3, r.row_vecs())


# --- kernels ----------------------------------------------------------------

def test_kernel_of_identity_is_zero():
    assert kernel_basis(Matrix.identity(2)).dim == 0


def test_kernel_of_zero_matrix_is_full():
    k = kernel_basis(Matrix(2, 3))
    assert k == Subspace.full(3)


def test_kernel_single_row():
    k = kernel_basis(Matrix.from_dense([[1, 1, 0]]))
    assert k.dim == 2
    assert k.contains_vec(vec_from_list([1, -1, 0]))
    assert k.contains_vec(vec_from_list([0, 0, 1]))


# --- subspace lattice --------------------------------------------------------

def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, [vec_from_list(v) for v in vectors])


def test_sum_with_zero_is_identity():
    a = span(3, [1, 2, 0])
    assert subspace_sum(a, Subspace.zero(3)) == a


def test_sum_of_axes_is_full():
    assert subspace_sum(span(2, [1, 0]), span(2, [0, 1])) == Subspace.full(2)


def test_sum_diagonal_antidiagonal():
    got = subspace_sum(span(3, [1, 1, 0]), span(3, [1, -1, 0]))
    assert got == span(3, [1, 0, 0], [0, 1, 0])


def test_sum_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))


def test_intersect_with_full_space():
    a = span(3, [1, 2, 3])
    assert subspace_intersect(a, Subspace.full(3)) == a


def test_intersect_axes_is_zero():
    assert subspace_intersect(span(2, [1, 0]), span(2, [0, 1])).dim == 0


def test_intersect_overlapping_planes():
    got = subspace_intersect(span(3, [1, 0, 0], [0, 1, 0]), span(3, [0, 1, 0], [0, 0, 1]))
    assert got == span(3, [0, 1, 0])


def test_contains():
    assert contains(span(2, [2, 2]), [1, 1])
    assert contains(span(2, [0, 1]), [0, 0])
    assert not contains(span(2, [0, 1]), [1, 0])
    with pytest.raises(ValueError):
        contains(span(2, [0, 1]), [1, 0, 0])


# --- property suites ----------------------------------------------------------

entries = st.integers(min_value=-4, max_value=4)


@st.composite
def matrices(draw, max_dim=6):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return Matrix.from_dense(data)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rref_idempotent(m):
    r, rk = rref(m)
    r2, rk2 = rref(r)
    assert r2 == r and rk2 == rk


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_nullity(m):
    assert kernel_basis(m).dim + rank(m) == m.cols


@given(matrices(), st.fractions(min_value=-5, max_value=5).filter(bool))
@settings(max_examples=60, deadline=None)
def test_scaling_preserves_pivot_structure(m, c):
    scaled = Matrix(m.rows, m.cols, {k: c * v for k, v in m.entries.items()})
    r1, _ = rref(m)
    r2, _ = rref(scaled)
    assert r1 == r2  # RREF normalizes the scale away entirely


vecs = st.lists(st.lists(entries, min_size=4, max_size=4), min_size=0, max_size=3)


@given(vecs, vecs, vecs)
@settings(max_examples=80, deadline=None)
def test_modular_law_on_chains(a_rows, b_rows, extra):
    # a ⊆ c forces (a + b) ∩ c = a + (b ∩ c)
    a = Subspace.from_vectors(4, [vec_from_list(r) for r in a_rows])
    b = Subspace.from_vectors(4, [vec_from_list(r) for r in b_rows])
    c = subspace_sum(a, Subspace.from_vectors(4, [vec_from_list(r) for r in extra]))
    lhs = subspace_intersect(subspace_sum(a, b), c)
    rhs = subspace_sum(a, subspace_intersect(b, c))
    assert lhs == rhs


@given(vecs, vecs)
@settings(max_examples=80, deadline=None)
def test_dimension_formula(a_rows, b_rows):
    a = Subspace.from_vectors(4, [vec_from_list(r) for r in a_rows])
    b = Subspace.from_vectors(4, [vec_from_list(r) for r in b_rows])
    assert (
        subspace_sum(a, b).dim + subspace_intersect(a, b).dim == a.dim + b.dim
    )
