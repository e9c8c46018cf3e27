import copy
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghlie.exactla as exactla
from ghlie.exactla import (
    Matrix,
    Subspace,
    _eliminate,
    _eliminate_tall,
    _forward,
    _integer_row,
    _primitive,
    _primitive_copy,
    _ratio,
    _singletons,
    invert,
    rank,
    relations,
    vec,
    vec_axpy,
)
from ghlie.fixtures import seeded_gh
from ghlie.liealg import rebase_class2
from ghlie.multiplier import psi2_image

from _reference import assert_prepass_agrees, jacobi_cycle_generators

F = Fraction


def vec_from_list(xs):
    return vec(dict(enumerate(xs)))


def canonical(x):
    """The numeric contract: an int exactly when x is integral, else a Fraction."""
    return type(x) is (int if x.denominator == 1 else F)


def transpose(m):
    return Matrix(len(m.rows), [{r: row[c] for r, row in enumerate(m.rows) if c in row} for c in range(m.cols)])


def columns(m):
    """m's columns as sparse vectors: their relations are m's right null space."""
    return [{i: r[c] for i, r in enumerate(m.rows) if c in r} for c in range(m.cols)]


def rref_rows(cols, rows):
    """The reduced row echelon form of rows in Q^cols: new unit-pivot rows by pivot."""
    return Subspace.from_vectors(cols, rows).vectors()


# --- rref -------------------------------------------------------------------

def test_matrix_rows_are_coerced_and_bounded():
    assert Matrix(2, [{0: 0, 1: 2}]).rows == [{1: F(2)}]
    # from_dense is external input: coerced to the contract, a bool included
    m = Matrix.from_dense([[F(4, 2), 0, F(1, 2), True]])
    assert m.rows == [{0: 2, 2: F(1, 2), 3: 1}]
    assert all(canonical(x) for x in m.rows[0].values())
    with pytest.raises(IndexError):
        Matrix(2, [{0: 1}, {2: 1}])


def test_vec_passes_fractions_through():
    half = F(1, 2)
    v = vec({0: half, 1: F(4, 2), 2: F(0), 3: 7})
    assert v == {0: half, 1: 2, 3: 7} and v[0] is half and type(v[1]) is int


def test_rref_zero_matrix():
    assert rref_rows(3, [{}, {}, {}]) == []


def test_rref_identity():
    rows = [{0: 1}, {1: 1}]
    assert rref_rows(2, rows) == rows


def test_rref_dependent_rows():
    assert rref_rows(2, Matrix.from_dense([[1, 2], [2, 4]]).rows) == [{0: 1, 1: 2}]


def test_rref_preserves_row_space():
    m = Matrix.from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r = rref_rows(3, m.rows)
    assert len(r) == 2
    assert Subspace.from_vectors(3, m.rows) == Subspace.from_vectors(3, r)


# --- kernels ----------------------------------------------------------------

def test_kernel_of_identity_is_zero():
    assert relations(columns(Matrix(2, [{0: 1}, {1: 1}]))).dim == 0


def test_kernel_of_zero_matrix_is_full():
    k = relations(columns(Matrix(3, [{}, {}])))
    assert k == Subspace.full(3)


def test_kernel_single_row():
    k = relations(columns(Matrix.from_dense([[1, 1, 0]])))
    assert k.dim == 2
    assert k.contains_vec(vec_from_list([1, -1, 0]))
    assert k.contains_vec(vec_from_list([0, 0, 1]))


# --- subspace lattice --------------------------------------------------------
# The lattice operations have no caller in the engine; they live here to check
# the kernel against the modular law and the dimension formula.

def subspace_sum(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_vectors(a.ambient_dim, a.vectors() + b.vectors())


def subspace_intersect(a, b):
    """Intersection via the Zassenhaus double-block trick."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    rows = []
    for v in a.vectors():
        r = dict(v)
        r.update({c + n: x for c, x in v.items()})
        rows.append(r)
    rows.extend(b.vectors())
    inter = [{c - n: x for c, x in r.items()} for r in rref_rows(2 * n, rows) if min(r) >= n]
    return Subspace.from_vectors(n, inter)


def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, [vec_from_list(v) for v in vectors])


def coords(sub, v):
    """Coefficients of v in sub's RREF basis rows, or None if v is outside."""
    if not sub.contains_vec(v):
        return None
    # RREF: the pivot coordinates of v are exactly its basis coefficients.
    return {t: v[p] for t, p in enumerate(sub.pivots) if p in v}


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
    assert span(2, [2, 2]).contains_vec(vec_from_list([1, 1]))
    assert span(2, [0, 1]).contains_vec({})
    assert not span(2, [0, 1]).contains_vec(vec_from_list([1, 0]))


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
    r = rref_rows(m.cols, m.rows)
    assert rref_rows(m.cols, r) == r


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_of_transpose(m):
    assert rank(m) == rank(transpose(m))


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rank_nullity(m):
    assert relations(columns(m)).dim + rank(m) == m.cols


@given(matrices(), st.fractions(min_value=-5, max_value=5).filter(bool))
@settings(max_examples=60, deadline=None)
def test_scaling_preserves_pivot_structure(m, c):
    scaled = Matrix(m.cols, [{k: c * v for k, v in row.items()} for row in m.rows])
    r1 = rref_rows(m.cols, m.rows)
    r2 = rref_rows(m.cols, scaled.rows)
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


# --- the shared kernel against its earlier implementation ---------------------

def _reference_row_sub(r, pivot_row, coef):
    out = dict(r)
    for c, v in pivot_row.items():
        s = out.get(c, F(0)) - coef * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    return out


def _reference_rref_rows(row_vecs):
    """The copy-per-step elimination that the integer kernel replaced, kept as its reference."""
    work = [(min(r), dict(r)) for r in row_vecs if r]
    done = []
    while work:
        lead = min(l for l, _ in work)
        for idx, (l, r) in enumerate(work):
            if l == lead:
                pivot = r
                work.pop(idx)
                break
        inv = F(1) / pivot[lead]
        if inv != 1:
            pivot = {c: inv * v for c, v in pivot.items()}
        nxt = []
        for l, r in work:
            coef = r.get(lead)
            if coef is not None:
                r = _reference_row_sub(r, pivot, coef)
                if r:
                    nxt.append((min(r), r))
            else:
                nxt.append((l, r))
        work = nxt
        for i, r in enumerate(done):
            coef = r.get(lead)
            if coef is not None:
                done[i] = _reference_row_sub(r, pivot, coef)
        done.append(pivot)
    return done


# (int entries, Fraction entries); the Fractions include integral ones like
# F(2), which the kernel accepts but never returns.
small_scalars = (
    st.integers(-4, 4),
    st.one_of(st.integers(-4, 4).map(F), st.fractions(min_value=-4, max_value=4, max_denominator=6)),
)
# Numerators up to ±2^80 over denominators up to 2^40: the integer kernel's
# denominator lcm and content gcd both have work to do.
large_scalars = (
    st.integers(-2**80, 2**80),
    st.builds(F, st.integers(-2**80, 2**80), st.integers(1, 2**40)),
)


@st.composite
def row_lists(draw, max_cols=7, max_rows=7, min_cols=1):
    """Sparse rows of int, Fraction or mixed entries, plus repeated and scaled copies."""
    ints, fracs = draw(st.sampled_from((small_scalars, large_scalars)))
    scalars = st.one_of(ints, fracs)
    cols = draw(st.integers(min_cols, max_cols))
    rows = draw(st.lists(
        st.sampled_from((ints, fracs, scalars)).flatmap(
            lambda s: st.dictionaries(st.integers(0, cols - 1), s.filter(bool))
        ) if cols else st.just({}),
        max_size=max_rows,
    ))
    if rows:
        copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), scalars), max_size=4))
        rows += [{c: k * x for c, x in rows[i].items() if k * x} for i, k in copies]
    return cols, draw(st.permutations(rows))


@given(row_lists())
@settings(max_examples=200, deadline=None)
def test_rref_rows_matches_reference_kernel(case):
    cols, rows = case
    before = copy.deepcopy(rows)
    got = rref_rows(cols, rows)
    assert rows == before
    want = _reference_rref_rows(rows)
    assert got == want
    for r in got:
        assert list(r) == sorted(r)
        assert all(canonical(x) for x in r.values())
    assert not any(g is r for g in got for r in rows)


def _reference_kernel_basis(m):
    """The two-elimination kernel_basis that one reversed-column elimination replaced."""
    reduced = _unit_rref_rows(m.rows)
    piv = [min(r) for r in reduced]
    piv_set = set(piv)
    free = [c for c in range(m.cols) if c not in piv_set]
    gens = []
    for f in free:
        v = {f: F(1)}
        for p, row in zip(piv, reduced):
            coef = row.get(f)
            if coef is not None:
                v[p] = -coef
        gens.append(v)
    return Subspace.from_vectors(m.cols, gens)


@given(row_lists(min_cols=0))
@example((0, []))
@example((0, [{}, {}]))
@example((3, [{}, {}]))  # the zero matrix
@example((4, [{0: F(1), 2: F(2)}, {0: F(3), 2: F(-1)}]))  # columns 1 and 3 all zero
@settings(max_examples=200, deadline=None)
def test_kernel_basis_matches_reference(case):
    cols, rows = case
    m = Matrix(cols, rows)
    got = relations(columns(m))
    assert got == _reference_kernel_basis(m)
    assert got.dim == cols - rank(m)
    for v in got.vectors():
        for row in m.rows:
            assert sum(x * v.get(c, 0) for c, x in row.items()) == 0


def test_operations_leave_subspace_rows_unchanged():
    sub = span(4, [1, 2, 0, 3], [0, 1, 1, 0])
    other = span(4, [1, 0, 0, 0], [0, 0, 1, 1])
    before = copy.deepcopy([sub.vectors(), other.vectors()])
    # the shared rows themselves go in as arguments too
    for v in (vec_from_list([3, 1, 4, 1]), *sub.vectors(), *other.vectors()):
        for w in (sub, other):
            w.reduce(v)
            coords(w, v)
            w.quotient_coords(v)
            w.contains_vec(v)
    for a, b in ((sub, other), (other, sub), (sub, sub)):
        subspace_sum(a, b)
        subspace_intersect(a, b)
    relations(sub.vectors())
    m = Matrix(4, sub.vectors() + [{2: F(1)}, {3: F(1)}])
    m_before = copy.deepcopy(m.rows)
    inv = invert(m)
    assert [sub.vectors(), other.vectors()] == before
    assert m.rows == m_before
    for i, row in enumerate(m.rows):
        product = {}
        for c, x in row.items():
            vec_axpy(product, x, inv.rows[c])
        assert product == {i: F(1)}


def _reference_reduce(sub, v):
    """The Fraction reduce that the integer one replaced, kept as its reference."""
    out = dict(v)
    for p, row in zip(sub.pivots, sub.vectors()):
        coef = out.get(p)
        if coef is not None:
            vec_axpy(out, -coef, row)
    return out


def test_reduce_types_integral_values_as_ints_on_both_paths():
    # pivot 0, complement (1, 2): ``miss`` holds no pivot and is only copied;
    # ``hit`` is eliminated at 0 and comes out equal to it
    sub = Subspace.from_vectors(3, [{0: 1, 1: 2}])
    miss = {1: F(2, 1), 2: F(-3, 2)}
    hit = {0: F(1, 1), 1: F(4, 1), 2: F(-3, 2)}
    for v in (miss, hit):
        assert typed([sub.reduce(v)]) == [[(1, 2, int), (2, F(-3, 2), F)]]
        assert typed([sub.quotient_coords(v)]) == [[(0, 2, int), (1, F(-3, 2), F)]]
    assert miss == {1: F(2, 1), 2: F(-3, 2)} and type(miss[1]) is F  # inputs untouched


def _reference_coords(sub, v):
    if _reference_reduce(sub, v):
        return None
    return {t: v[p] for t, p in enumerate(sub.pivots) if p in v}


def _reference_quotient_coords(sub, v):
    pos = {c: k for k, c in enumerate(sub.complement_coords())}
    return {pos[c]: x for c, x in _reference_reduce(sub, v).items()}


@given(row_lists(max_rows=6), st.integers(0, 8), st.lists(st.integers(-3, 3), max_size=6))
# v meets two pivots, and each elimination brings in a new column
@example((4, [{0: F(1), 2: F(1)}, {1: F(1), 3: F(1)}, {0: F(1), 1: F(1)}]), 2, [])
@example((4, [{0: F(2), 2: F(1, 3)}, {1: F(3, 4), 3: F(5)}, {0: F(1, 2), 1: F(7), 2: F(-1)}]), 2, [1, 2])
@settings(max_examples=200, deadline=None)
def test_reduce_matches_reference(case, split, mix):
    cols, rows = case
    sub = Subspace.from_vectors(cols, rows[:split])
    # rows inside and (mostly) outside the subspace, and a mix of both
    vectors = list(rows)
    combo = {}
    for k, v in zip(mix, rows):
        vec_axpy(combo, F(k), v)
    vectors.append(combo)
    sub_rows = copy.deepcopy(sub.vectors())
    before = copy.deepcopy(vectors)
    for _ in range(2):  # the first call builds the integer rows, the second reuses them
        for v in vectors:
            want = _reference_reduce(sub, v)
            got = sub.reduce(v)
            assert list(got.items()) == list(want.items())
            # any vector, in the contract (as vec makes it) or not, reduces to one in it
            assert all(canonical(x) for x in got.values())
            assert all(canonical(x) for x in sub.reduce(vec(v)).values())
            assert sub.quotient_coords(v) == _reference_quotient_coords(sub, v)
            assert coords(sub, v) == _reference_coords(sub, v)
            assert sub.contains_vec(v) == (not want)
    assert vectors == before
    assert sub.vectors() == sub_rows


# --- the elimination schedule against the one it replaced ----------------------

def _reference_primitive(r):
    g = gcd(*r.values())
    if g > 1:
        for c, x in r.items():
            r[c] = x // g
    return r


def _reference_step(r, a, pivot, p):
    """The step as the per-pivot kernel ran it: r := (p/g)·r − (a/g)·pivot with
    g = gcd(a, p), made primitive.  The reference keeps its own copy, so that a
    fault in ``_cross_eliminate`` cannot hide inside it."""
    g = gcd(a, p)
    for c, x in r.items():
        r[c] = (p // g) * x
    for c, x in pivot.items():
        y = r.get(c, 0) - (a // g) * x
        if y:
            r[c] = y
        else:
            del r[c]
    if r:
        _reference_primitive(r)


def _per_pivot_eliminate(rows):
    """The kernel that cleared each new pivot from every finished row as it went."""
    buckets = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(_reference_primitive(_integer_row(r)[1]))
    heap = list(buckets)
    heapify(heap)
    done = []
    while heap:
        lead = heappop(heap)
        bucket = buckets.pop(lead)
        pivot = bucket.pop(0)
        p = pivot[lead]
        if p < 0:
            for c, x in pivot.items():
                pivot[c] = -x
            p = -p
        for r in bucket:
            _reference_step(r, r[lead], pivot, p)
            if r:
                l = min(r)
                if l not in buckets:
                    buckets[l] = []
                    heappush(heap, l)
                buckets[l].append(r)
        for _, r in done:
            a = r.get(lead)
            if a is not None:
                _reference_step(r, a, pivot, p)
        done.append((lead, pivot))
    return done


def _per_pivot_rref_rows(rows):
    out = []
    for l, r in _per_pivot_eliminate(rows):
        p, items = r[l], sorted(r.items())
        out.append(dict(items) if p == 1 else {c: _ratio(x, p) for c, x in items})
    return out


def _per_pivot_rank(m):
    return len(_per_pivot_eliminate(m.rows))


def _reversed_kernel_basis(m):
    """The kernel_basis that reduced every shape with its columns reversed."""
    last = m.cols - 1
    reduced = _per_pivot_rref_rows([{last - c: x for c, x in r.items()} for r in m.rows])
    pivots = {last - min(r) for r in reduced}
    gens = {f: {f: 1} for f in range(m.cols) if f not in pivots}
    for r in reversed(reduced):
        p = last - min(r)
        for c, x in r.items():
            if last - c != p:
                gens[last - c][p] = -x
    return _ReferenceSubspace(m.cols, gens.values())


def typed(rows):
    """Rows as (column, value, type) lists: key order and the int/Fraction choice count."""
    return [[(c, x, type(x)) for c, x in r.items()] for r in rows]


@st.composite
def shaped_rows(draw, max_cols=6):
    """Wide, square and tall shapes (up to 4x as many rows as columns, empty rows
    included), full rank or spanned by a few random rows, so tall ones have null
    vectors; int, Fraction and large entries."""
    ints, fracs = draw(st.sampled_from((small_scalars, large_scalars)))
    scalars = st.one_of(ints, fracs)
    cols = draw(st.integers(0, max_cols))
    n = draw(st.integers(0, 4 * cols + 1))
    if not cols:
        return 0, [{}] * n
    sparse = st.dictionaries(st.integers(0, cols - 1), scalars.filter(bool))
    if draw(st.booleans()):
        return cols, draw(st.lists(sparse, min_size=n, max_size=n))
    basis = draw(st.lists(sparse, min_size=1, max_size=cols))
    rows = []
    for _ in range(n):
        r = {}
        for b, k in zip(basis, draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))):
            vec_axpy(r, k, b)
        rows.append(r)
    return cols, rows


@given(shaped_rows())
@example((0, [{}, {}]))
@example((2, [{0: 1, 1: -1}] * 5 + [{}]))  # tall, one null vector, empty row included
@example((1, [{0: 2**80}, {0: F(1, 3)}, {0: F(-7, 2**40)}]))
@settings(max_examples=300, deadline=None)
def test_schedule_matches_per_pivot_kernel(case):
    cols, rows = case
    before = copy.deepcopy(rows)
    assert _eliminate(rows) == _per_pivot_eliminate(rows)
    assert typed(rref_rows(cols, rows)) == typed(_per_pivot_rref_rows(rows))
    m = Matrix(cols, rows)
    assert rank(m) == _per_pivot_rank(m)
    assert_same(relations(columns(m)), _reversed_kernel_basis(m))
    assert rows == before


# --- the sparsest-row pivot against the first-row schedule it replaced ----------

def _first_row(bucket):
    return 0


def _sparsest_row(bucket):
    """The rule restated: fewest nonzeros, the first on ties (min keeps the first)."""
    return min(range(len(bucket)), key=lambda i: len(bucket[i]))


def _reference_forward(rows, choose=_first_row):
    """``_forward`` as it was, taking the first row of each bucket as the pivot;
    ``choose`` picks another.  The step is looked up on the module, so a patch
    that counts it sees this pass's steps too."""
    buckets = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(_primitive_copy(r))
    heap = list(buckets)
    heapify(heap)
    done = []
    while heap:
        lead = heappop(heap)
        bucket = buckets.pop(lead)
        pivot = bucket.pop(choose(bucket))
        p = pivot[lead]
        if p < 0:
            for c, x in pivot.items():
                pivot[c] = -x
            p = -p
        for r in bucket:
            exactla._cross_eliminate(r, r[lead], pivot, p)
            if r:
                _primitive(r)
                l = min(r)
                if l not in buckets:
                    buckets[l] = []
                    heappush(heap, l)
                buckets[l].append(r)
        done.append((lead, pivot))
    return done


def _unit_prepass_forward(rows):
    """``_forward``'s rule restated: each one-entry row is the pivot {c: 1} of
    its column, the first at each column; the other rows lose those columns, an
    emptied row is dropped, and the rest run the sparsest-row pass; the pairs
    come back by pivot column."""
    units = {}
    for r in rows:
        if len(r) == 1:
            [c] = r
            units.setdefault(c, {c: 1})
    rest = [{c: x for c, x in r.items() if c not in units} for r in rows if len(r) > 1]
    return sorted(list(units.items()) + _reference_forward(rest, _sparsest_row), key=lambda pair: pair[0])


def _reference_eliminate(rows):
    """``_eliminate``'s back-substitution over the first-row forward pass."""
    done = _reference_forward(rows)
    reduced = {}
    for lead, r in reversed(done):
        for c in [c for c in r if c in reduced]:
            exactla._cross_eliminate(r, r[c], reduced[c], reduced[c][c])
            _primitive(r)
        reduced[lead] = r
    return done


def typed_pairs(pairs):
    """(pivot column, typed row) pairs: the row's key order and value types count."""
    return [(l, typed([r])[0]) for l, r in pairs]


def sorted_pairs(pairs):
    return [(l, dict(sorted(r.items()))) for l, r in pairs]


@given(shaped_rows())
@example((3, [{0: 1, 1: 1, 2: 1}, {0: -2, 2: 1}]))  # the sparsest row is second, with a negative lead
@example((3, [{0: 1, 1: 2, 2: 3}, {0: 2, 2: 1}, {0: -1, 1: 1}]))  # a tie: the first of the sparsest
@example((2, [{0: 1, 1: 1}, {0: 3}, {1: 2}]))  # a one-entry pivot
@example((1, [{0: F(-1, 3)}]))  # a one-entry row with a negative Fraction lead
@example((3, [{1: 2}, {0: 1, 1: 1}, {1: -1}, {1: F(1, 3)}, {0: 2, 2: 1}]))  # three units at one column
@example((3, [{0: -4}, {2: F(-2, 5)}, {0: 3, 2: 6}, {0: 1, 1: 2, 2: 1}]))  # a row all of unit columns
@example((4, [{3: 7}, {0: 2, 1: 4, 3: 1}, {1: 3, 2: 6, 3: F(1, 2)}]))  # rows left with one entry, made primitive
@settings(max_examples=300, deadline=None)
def test_sparsest_pivot_matches_first_row_schedule(case):
    cols, rows = case
    before = copy.deepcopy(rows)
    # The forward pass is the one its rule gives, row for row and key for key.
    assert typed_pairs(_forward(rows)) == typed_pairs(_unit_prepass_forward(rows))
    # Any pivot gives the same RREF: pairs, rows and types agree, and so does
    # the key order callers see (a Subspace sorts its rows' keys).
    want = sorted_pairs(_reference_eliminate(rows))
    assert typed_pairs(sorted_pairs(_eliminate(rows))) == typed_pairs(want)
    assert typed(Subspace.from_vectors(cols, rows).integer_rows()) == typed(r for _, r in want)
    assert rank(Matrix(cols, rows)) == len(want)
    assert rows == before


def test_sparsest_pivot_does_less_work_on_a_seeded_k(monkeypatch):
    """The forward pass over a seeded d = 12 defect-3 algebra's Jacobi cycles takes
    fewer elimination steps than the first-row schedule, to the same K.  Both
    passes run on the same generators directly: psi2_image hands the kernel
    only what the column-singleton pre-pass leaves, which here is nothing."""
    a, rel2, _ = rebase_class2(seeded_gh(12, 3, 0))
    gens = jacobi_cycle_generators(a, rel2)
    steps = [0]
    step = exactla._cross_eliminate

    def counted(*args):
        steps[0] += 1
        return step(*args)

    monkeypatch.setattr(exactla, "_cross_eliminate", counted)
    got = _forward(gens)
    sparsest = steps[0]
    steps[0] = 0
    want = _reference_forward(gens)
    first_row = steps[0]
    k = psi2_image(a, rel2)
    got, want = (Subspace.from_vectors(k.r * k.n, [r for _, r in pairs]) for pairs in (got, want))
    assert got == want == k.image and typed(got.integer_rows()) == typed(want.integer_rows())
    assert 0 < sparsest < first_row


# --- the tall schedule against the forward pass ---------------------------------

@st.composite
def tall_rows(draw, max_cols=5):
    """More than 2x as many nonzero rows as columns, each a combination of a few
    rows of a basis of rank 0..cols (distinct leads, columns then permuted, so
    no combination is zero): sparse or dense Fraction rows, repeated and zero
    rows, small or large (2^80) entries."""
    ints, fracs = draw(st.sampled_from((small_scalars, large_scalars)))
    scalars = st.one_of(ints, fracs)
    cols = draw(st.integers(0, max_cols))
    perm = draw(st.permutations(range(cols)))
    leads = sorted(draw(st.sets(st.integers(0, cols - 1), max_size=cols))) if cols else []
    dense = draw(st.booleans())
    basis = []
    for l in leads:
        tail = range(l + 1, cols)
        if dense:
            entries = draw(st.lists(fracs.filter(bool), min_size=len(tail), max_size=len(tail)))
        else:
            entries = draw(st.lists(st.one_of(st.just(0), scalars), min_size=len(tail), max_size=len(tail)))
        r = {perm[l]: draw(scalars.filter(bool))}
        r.update((perm[c], x) for c, x in zip(tail, entries) if x)
        basis.append(r)
    # One seeded generator draws the combinations: one draw per coefficient
    # would spend most of the test in hypothesis.
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for _ in range(draw(st.integers(2 * cols + 1, 3 * cols + 2)) if basis else 0):
        r = {}  # a few basis rows, so sparse rows overlap in part
        for b in rnd.sample(basis, rnd.randint(1, len(basis))):
            vec_axpy(r, rnd.choice((-2, -1, 1, 2, F(1, 2), F(-2, 3))), b)
        rows.append(vec(r))
    if rows:
        picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
        rows += [rows[i] for i in picks] + [{}] * draw(st.integers(0, 2))
    return cols, draw(st.permutations(rows))


@given(tall_rows())
@example((0, [{}, {}]))
@example((1, [{0: 2**80}, {0: F(-1, 3)}, {0: F(7, 2**40)}, {}]))
@example((1, [{}] * 3))  # rank 0
@example((2, [{0: -2, 1: 4}, {0: F(1, 2), 1: -1}, {1: -3}, {0: 5}, {0: 1, 1: 1}]))  # full rank, negative leads
@example((2, [{0: 1, 1: 1}, {0: 1}, {0: 2}, {0: -1}, {0: 3}]))  # the residual fills in outside u's support
@settings(max_examples=150, deadline=None)
def test_tall_schedule_matches_forward_pass(case):
    cols, rows = case
    before = copy.deepcopy(rows)
    want = _eliminate(rows)
    assert _eliminate_tall(rows) == want
    if sum(map(bool, rows)) > 2 * cols:  # from_vectors takes the tall schedule
        got = Subspace.from_vectors(cols, rows)
        ref = Subspace(cols, [dict(sorted(r.items())) for _, r in want])
        assert got.pivots == ref.pivots == tuple(l for l, _ in want)
        assert typed(got.integer_rows()) == typed(ref.integer_rows())
        assert typed(got.vectors()) == typed(ref.vectors())
    assert rows == before


# --- the integer store against the rational one it replaced ----------------------

def _unit_rref_rows(rows):
    """``_eliminate``'s rows divided by their pivots, keys ascending: the RREF reader
    that ``Subspace.vectors()`` replaced, kept for the reference classes."""
    out = []
    for l, r in _eliminate(rows):
        p, items = r[l], sorted(r.items())
        out.append(dict(items) if p == 1 else {c: _ratio(x, p) for c, x in items})
    return out


class _ReferenceSubspace:
    """The Subspace that stored unit-pivot rational rows and built integer copies
    of them for reduce, kept as the reference of the integer store."""

    def __init__(self, ambient_dim, rows):
        self.ambient_dim = ambient_dim
        self._rows = tuple(rows)
        self.pivots = tuple(min(r) for r in self._rows)
        self._int_rows = None

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        return cls(ambient_dim, _unit_rref_rows(vectors))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, [{i: 1} for i in range(ambient_dim)])

    @property
    def dim(self):
        return len(self._rows)

    def complement_coords(self):
        piv = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in piv)

    def vectors(self):
        return list(self._rows)

    def reduce(self, v):
        if self._int_rows is None:
            self._int_rows = {p: _integer_row(r)[1] for p, r in zip(self.pivots, self._rows)}
        rows = self._int_rows
        hits = sorted(c for c in v if c in rows)
        if not hits:
            return vec(v)
        scale, u = _integer_row(v)
        for p in hits:
            row = rows[p]
            a, q = u[p], row[p]
            g = gcd(a, q)
            if q != g:
                s = q // g
                scale *= s
                for c, x in u.items():
                    u[c] = s * x
            t = a // g
            for c, x in row.items():
                y = u.get(c, 0) - t * x
                if y:
                    u[c] = y
                else:
                    del u[c]
        return u if scale == 1 else {c: _ratio(x, scale) for c, x in u.items()}

    def contains_vec(self, v):
        return not self.reduce(v)

    def quotient_coords(self, v):
        pos = {c: k for k, c in enumerate(self.complement_coords())}
        return {pos[c]: x for c, x in self.reduce(v).items()}

    def __eq__(self, other):
        return (
            isinstance(other, _ReferenceSubspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )


def _reference_kernel_basis_rational(m):
    """kernel_basis as it was: the tall path as now, and the wide path read off
    the unit-pivot rows of one reversed-column RREF."""
    rows = [r for r in m.rows if r]
    n = len(rows)
    if n > m.cols:
        transposed = [{n + c: 1} for c in range(m.cols)]
        for i, r in enumerate(rows):
            for c, x in r.items():
                transposed[c][i] = x
        null = [{c - n: x for c, x in r.items()} for lead, r in _forward(transposed) if lead >= n]
        return _ReferenceSubspace.from_vectors(m.cols, null)
    last = m.cols - 1
    reduced = _unit_rref_rows([{last - c: x for c, x in r.items()} for r in rows])
    pivots = {last - min(r) for r in reduced}
    gens = {f: {f: 1} for f in range(m.cols) if f not in pivots}
    for r in reversed(reduced):
        p = last - min(r)
        for c, x in r.items():
            if last - c != p:
                gens[last - c][p] = -x
    return _ReferenceSubspace(m.cols, gens.values())


def assert_same(got, want):
    """A Subspace against its reference: shape, and the rows vectors() returns
    with their values, key order and int/Fraction types."""
    assert (got.ambient_dim, got.dim, got.pivots) == (want.ambient_dim, want.dim, want.pivots)
    assert got.complement_coords() == want.complement_coords()
    assert typed(got.vectors()) == typed(want.vectors())


def assert_stored_form(sub):
    """integer_rows() is the stored form: primitive int rows with a positive pivot,
    zero at the other pivots, keys ascending, spanning what vectors() spans."""
    rows = sub.integer_rows()
    assert tuple(next(iter(r)) for r in rows) == sub.pivots
    for r, v in zip(rows, sub.vectors()):
        assert list(r) == sorted(r) and all(type(x) is int for x in r.values())
        assert r[min(r)] > 0 and gcd(*r.values()) == 1
        assert not any(p in r for p in sub.pivots if p != min(r))
        assert {c: F(x, r[min(r)]) for c, x in r.items()} == v


@given(row_lists(min_cols=0), st.integers(0, 12), st.lists(st.integers(-3, 3), max_size=6))
# equal pivots, different subspaces: span{(1, 1)} against ker (1 1) = span{(1, -1)}
@example((2, [{0: 1, 1: 1}]), 1, [])
# wide, and the null vector of free column 0 has content 6 before it is made primitive
@example((4, [{0: 2, 1: 1, 2: 2}, {0: 3, 1: 1, 3: 3}]), 1, [1, 1])
@example((3, [{0: F(1, 2), 2: F(-3, 4)}, {}, {1: F(5, 3)}, {0: 1, 1: 1, 2: 1}] + [{0: 1}] * 3), 2, [2, -1])
@settings(max_examples=200, deadline=None)
def test_subspace_matches_rational_reference(case, split, mix):
    cols, rows = case
    before = copy.deepcopy(rows)
    m = Matrix(cols, rows)
    t = transpose(m)  # its null space is wide where m's is tall, in Q^len(rows)
    pairs = [
        (Subspace.from_vectors(cols, rows[:split]), _ReferenceSubspace.from_vectors(cols, rows[:split])),
        (Subspace.from_vectors(cols, rows), _ReferenceSubspace.from_vectors(cols, rows)),
        (relations(columns(m)), _reference_kernel_basis_rational(m)),
        (Subspace.zero(cols), _ReferenceSubspace.zero(cols)),
        (Subspace.full(cols), _ReferenceSubspace.full(cols)),
        (relations(columns(t)), _reference_kernel_basis_rational(t)),
    ]
    combo = {}
    for k, v in zip(mix, rows):
        vec_axpy(combo, F(k), v)
    probes = list(rows) + [combo] + [v for got, _ in pairs for v in got.vectors() + got.integer_rows()]
    probes_before = copy.deepcopy(probes)
    for got, want in pairs:
        assert_same(got, want)
        assert_stored_form(got)
        # one stored form: the same subspace from its own rows, rational or integer
        n = got.ambient_dim
        assert got == Subspace.from_vectors(n, got.vectors()) == Subspace.from_vectors(n, got.integer_rows())
        for v in (v for v in probes if all(c < got.ambient_dim for c in v)):
            assert typed([got.reduce(v)]) == typed([want.reduce(v)])
            assert typed([got.quotient_coords(v)]) == typed([want.quotient_coords(v)])
            assert got.contains_vec(v) == want.contains_vec(v)
            assert coords(got, v) == _reference_coords(want, v)
    # equality across constructors agrees with the references'
    for got1, want1 in pairs:
        for got2, want2 in pairs:
            assert (got1 == got2) == (want1 == want2)
    assert rows == before and probes == probes_before


# --- relations against the matrix kernel_basis it replaced ---------------------------

def _matrix_kernel_basis(m):
    """kernel_basis as it was before ``relations``: both paths read a Matrix's rows."""
    rows = [r for r in m.rows if r]
    n = len(rows)
    if n > m.cols:
        transposed = [{n + c: 1} for c in range(m.cols)]
        for i, r in enumerate(rows):
            for c, x in r.items():
                transposed[c][i] = x
        null = [{c - n: x for c, x in r.items()} for lead, r in _forward(transposed) if lead >= n]
        return Subspace.from_vectors(m.cols, null)
    last = m.cols - 1
    reduced = _eliminate([{last - c: x for c, x in r.items()} for r in rows])
    pivots = {last - l for l, _ in reduced}
    den = {f: 1 for f in range(m.cols) if f not in pivots}
    for l, r in reduced:
        q = r[l]
        if q != 1:
            for c in r:
                if c != l:
                    den[last - c] = lcm(den[last - c], q)
    gens = {f: {f: x} for f, x in den.items()}
    for l, r in reversed(reduced):
        p, q = last - l, r[l]
        for c, x in r.items():
            if c != l:
                f = last - c
                gens[f][p] = -x * (den[f] // q)
    return Subspace(m.cols, [v if den[f] == 1 else _primitive(v) for f, v in gens.items()])


def _columns_matrix(vectors):
    """The Matrix whose columns are vectors: one row per coordinate any of them uses."""
    coords = sorted(set().union(*vectors))
    return Matrix(len(vectors), [{i: v[c] for i, v in enumerate(vectors) if c in v} for c in coords])


@st.composite
def relation_vectors(draw, max_n=7):
    """Vectors as callers hold them: none to max_n of them, over dense small or sparse
    far-apart coordinates, so both tall and wide shapes come up; zero vectors,
    repeated ones and combinations of a few others (so tall shapes have relations);
    int, Fraction and 2^80 entries."""
    ints, fracs = draw(st.sampled_from((small_scalars, large_scalars)))
    scalars = st.one_of(ints, fracs).filter(bool)
    n = draw(st.integers(0, max_n))
    width = draw(st.integers(1, 2 * max_n + 2))
    if draw(st.booleans()):
        pool = list(range(width))
    else:
        pool = sorted(draw(st.sets(st.integers(0, 2**64), min_size=width, max_size=width)))
    base = draw(st.lists(st.dictionaries(st.sampled_from(pool), scalars), min_size=1, max_size=max(1, n)))
    # One seeded generator picks each vector's kind, as in tall_rows.
    rnd = draw(st.randoms(use_true_random=False))
    vectors = []
    for _ in range(n):
        kind = rnd.random()
        if kind < 0.15:
            vectors.append({})
        elif kind < 0.55:
            vectors.append(rnd.choice(base))
        else:
            v = {}
            for b in rnd.sample(base, rnd.randint(1, len(base))):
                vec_axpy(v, rnd.choice((-2, -1, 1, 3, F(1, 2), F(-2, 3))), b)
            vectors.append(v)
    return vectors


@given(relation_vectors())
@example([])
@example([{}, {}])  # zero vectors: every coefficient is free
@example([{7: 1}, {}, {7: -2}])
# wide: m = [[2, 1, 2, 0], [3, 1, 0, 3]] by columns; the relation of free index 0
# has content 6 before it is made primitive
@example([{0: 2, 1: 3}, {0: 1, 1: 1}, {0: 2}, {1: 3}])
# tall over far-apart coordinates, one relation v0 + v1 - v2 = 0; v0 holds the
# largest coordinate
@example([{0: 1, 9: 4, 2**70: 2}, {5: 3, 2**70: -1}, {0: 1, 5: 3, 9: 4, 2**70: 1}])
@example([{3: F(1, 3), 8: 2**80, 11: 1}, {3: F(-2, 3), 8: -2**81, 11: -2}, {1: F(5, 7)}, {}])
@settings(max_examples=200, deadline=None)
def test_relations_match_matrix_kernel_basis(vectors):
    before = copy.deepcopy(vectors)
    m = _columns_matrix(vectors)
    got = relations(vectors)
    want = _matrix_kernel_basis(m)
    assert_same(got, want)
    assert typed(got.integer_rows()) == typed(want.integer_rows())
    assert_stored_form(got)
    assert relations(columns(m)) == got
    for c in got.vectors():
        total = {}
        for i, x in c.items():
            vec_axpy(total, x, vectors[i])
        assert not total
    assert vectors == before


@given(st.sampled_from((small_scalars, large_scalars)).flatmap(
    lambda s: st.dictionaries(st.integers(0, 9), st.one_of(*s).filter(bool), min_size=1)))
@example({0: F(1, 2), 1: 3})
@example({4: F(-3, 2), 1: F(9, 2), 0: 6})  # content 3 once scaled by 2, keys not ascending
@example({2: F(4), 5: F(-6)})  # integral Fractions
@example({0: F(2**80, 3), 1: F(-2**81, 9)})
@settings(max_examples=200, deadline=None)
def test_primitive_copy_matches_integer_row_then_primitive(r):
    before = list(r.items())
    got = _primitive_copy(r)
    assert typed([got]) == typed([_primitive(_integer_row(r)[1])])
    assert list(r.items()) == before and got is not r


# --- invert against the RREF reader it replaced ----------------------------------

def _reference_invert(m):
    """invert as it was: the unit-pivot rows of [m | I] read off ``_eliminate``."""
    n = m.cols
    if len(m.rows) != n:
        raise ValueError("only square matrices are invertible")
    rows = [dict(r) for r in m.rows]
    for i, r in enumerate(rows):
        r[n + i] = 1
    reduced = _unit_rref_rows(rows)
    if len(reduced) != n or any(min(r) != i for i, r in enumerate(reduced)):
        raise ValueError("matrix is singular")
    return Matrix(n, [{c - n: x for c, x in r.items() if c >= n} for r in reduced])


@st.composite
def square_matrices(draw, max_n=7):
    """n×n matrices, n = 0..max_n, of int, Fraction or 2^80 entries with zeros; in
    about half of them one row is replaced by a combination of the others, so
    they are singular."""
    ints, fracs = draw(st.sampled_from((small_scalars, large_scalars)))
    scalars = st.one_of(st.just(0), ints, fracs)
    n = draw(st.integers(0, max_n))
    rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        ks = draw(st.lists(st.sampled_from((-1, 0, 1, 2, F(1, 2))), min_size=n, max_size=n))
        rows[i] = [sum(k * r[c] for j, (k, r) in enumerate(zip(ks, rows)) if j != i) for c in range(n)]
    return Matrix.from_dense(rows, n)


@given(square_matrices())
@example(Matrix(0, []))
@example(Matrix.from_dense([[0, 1], [1, 0]]))  # the first pivot is in row 1
@example(Matrix.from_dense([[2, 4], [1, 2]]))  # singular, rank 1
@example(Matrix.from_dense([[0, 0], [0, 0]]))
@example(Matrix.from_dense([[F(1, 2), 2**80], [3, F(-7, 2**40)]]))
@settings(max_examples=300, deadline=None)
def test_invert_matches_reference(m):
    before = copy.deepcopy(m.rows)
    n = m.cols
    try:
        want = _reference_invert(m)
    except ValueError as e:
        assert rank(m) < n
        with pytest.raises(ValueError) as got:
            invert(m)
        assert str(got.value) == str(e)
        assert m.rows == before
        return
    got = invert(m)
    assert got.cols == want.cols == n and typed(got.rows) == typed(want.rows)
    for i, row in enumerate(m.rows):  # m · invert(m) = I
        product = {}
        for c, x in row.items():
            vec_axpy(product, x, got.rows[c])
        assert product == {i: 1}
    assert m.rows == before


@pytest.mark.parametrize("m", [Matrix(2, [{0: 1}]), Matrix(1, [{0: 1}, {0: 2}]), Matrix(0, [{}])])
def test_invert_rejects_non_square(m):
    for inverse in (invert, _reference_invert):
        with pytest.raises(ValueError, match="only square matrices are invertible"):
            inverse(m)


# --- the column-singleton pre-pass against the kernel alone -----------------------

@st.composite
def prepass_rows(draw, max_cols=8):
    """Sparse int or Fraction rows over a few columns, so some columns have one
    holder: random rows, a chain {c, c+1} (taken from both ends, a round each),
    repeated rows that are the same dict object, and zero rows, in any order."""
    ints, fracs = draw(st.sampled_from((small_scalars, large_scalars)))
    scalars = st.one_of(ints, fracs).filter(bool)
    cols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), scalars, max_size=3), max_size=8))
    if draw(st.booleans()):  # a chain past the random columns
        rows += [{cols + c: draw(scalars), cols + c + 1: draw(scalars)} for c in range(draw(st.integers(1, 5)))]
    if rows:
        rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    zero = {}
    rows += [zero] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


_v = {1: 1, 2: F(1, 2)}


@given(prepass_rows())
@example([])
@example([{0: 1}, {1: -2}, {2: F(1, 3), 3: 2**80}])  # every row taken
@example([_v, _v, {}, {}])  # none: the same dict object twice, zero rows
@example([{0: 1}, _v, _v])  # one taken; the same dict twice in the rest, one relation between them
@example([{0: 1, 1: 1}, {1: 2, 2: 1}, {2: 1, 3: F(1, 2)}, {3: -1, 4: 1}, {4: 1, 5: 3}])  # three rounds
@example([{0: 1, 1: 1}, {1: 1}, {0: 2}, {}, {2: 1}])  # a unit column and a zero vector beside a taken row
@settings(max_examples=300, deadline=None)
def test_column_singleton_prepass_matches_the_kernel(rows):
    assert_prepass_agrees(rows)


def test_column_singleton_prepass_rounds_and_positions():
    v, zero = dict(_v), {}
    assert _singletons([{0: 1}, {1: -2}, {2: F(1, 3), 3: 2}]) == ([0, 1, 2], [])
    assert _singletons([v, v, zero, zero]) == ([], [0, 1, 2, 3])
    assert _singletons([{0: 1}, v, v]) == ([0], [1, 2])
    chain = [{c: 1, c + 1: 1} for c in range(5)]
    cycle = [{6: 1, 7: 1}, {7: 1, 8: 1}, {8: 1, 6: 1}]
    # the chain's ends go first, then the next pair in, then its middle; the cycle stays
    assert _singletons(chain + cycle) == ([0, 4, 1, 3, 2], [5, 6, 7])
    assert relations([{0: 1}, v, v]).integer_rows() == [{1: 1, 2: -1}]
    assert relations([zero, {0: 1}, zero]).integer_rows() == [{0: 1}, {2: 1}]
