import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ghlie.exactla import Matrix, Subspace, vec_axpy
from ghlie.fixtures import canonical_gh, relations_from_pairs
from ghlie.liealg import (
    CenterViolation,
    GhSpec,
    LieAlgebra,
    NotAnIdealError,
    abelian,
    bracket_vectors,
    center,
    change_of_basis,
    derived_subalgebra,
    direct_sum,
    gh_construct,
    heisenberg,
    jacobi_check,
    lower_central_series,
    quotient,
    rebase_class2,
)

F = Fraction
ONE = F(1)


def gh(d, rank, **kw):
    return gh_construct(GhSpec(d=d, rank=rank, **kw))


def nilpotency_class(a):
    """Length of the lower central series of a nilpotent a (0 for the zero algebra)."""
    if a.dim == 0:
        return 0
    series = lower_central_series(a)
    if series[-1].dim != 0:
        raise ValueError("algebra is not nilpotent")
    return len(series) - 1


def is_generalized_heisenberg(a):
    """True iff the derived subalgebra equals the full center."""
    der = derived_subalgebra(a)
    return center(a, der) == der


# --- brackets -----------------------------------------------------------------

def test_bracket_antisymmetry_on_vectors():
    h = heisenberg(1)
    u = {0: F(3), 1: F(-2), 2: F(7)}
    assert bracket_vectors(h, u, u) == {}


def test_heisenberg_defining_relation():
    h = heisenberg(1)
    assert bracket_vectors(h, {0: ONE}, {1: ONE}) == {2: ONE}


def test_bilinear_expansion():
    h = heisenberg(1)
    # [x1+x2, x1-x2] = -2 [x1, x2]
    got = bracket_vectors(h, {0: ONE, 1: ONE}, {0: ONE, 1: -ONE})
    assert got == {2: F(-2)}


def test_bracket_length_mismatch():
    with pytest.raises(ValueError):
        bracket_vectors(heisenberg(1), {5: ONE}, {0: ONE})


# --- jacobi -------------------------------------------------------------------

def test_jacobi_abelian_and_heisenberg():
    assert jacobi_check(abelian(5)) == []
    assert jacobi_check(heisenberg(1)) == []


def test_jacobi_violation_detected():
    # [x1,x2]=x3, [x1,x3]=x1 breaks the cyclic identity
    bad = LieAlgebra(3, ("a", "b", "c"), {(0, 1): {2: ONE}, (0, 2): {0: ONE}})
    assert jacobi_check(bad) != []


# --- derived / center / series --------------------------------------------------

def test_derived_subalgebra():
    assert derived_subalgebra(abelian(4)).dim == 0
    h = heisenberg(1)
    der = derived_subalgebra(h)
    assert der.dim == 1 and der.contains_vec({2: ONE})
    assert derived_subalgebra(gh(3, 2, seed=1)).dim == 2


def test_center():
    assert center(abelian(3)) == Subspace.full(3)
    assert center(heisenberg(1)).vectors() == [{2: ONE}]
    a = gh(4, 5, seed=0)
    assert center(a) == derived_subalgebra(a)
    assert center(a).dim == 5


def test_lower_central_series_and_class():
    series = lower_central_series(abelian(3))
    assert [s.dim for s in series] == [3, 0]
    assert nilpotency_class(abelian(3)) == 1
    a = gh(3, 2, seed=0)
    assert [s.dim for s in lower_central_series(a)] == [5, 2, 0]
    assert nilpotency_class(a) == 2


def test_center_of_heisenberg_2():
    assert center(heisenberg(2)).dim == 1


# --- quotients ------------------------------------------------------------------

def test_quotient_by_zero_is_copy():
    a = gh(3, 2, seed=0)
    q = quotient(a, Subspace.zero(a.dim))
    assert q.bracket == a.bracket


def test_quotient_by_derived_is_abelianization():
    a = gh(3, 2, seed=0)
    q = quotient(a, derived_subalgebra(a))
    assert q.dim == 3 and q.bracket == {}


def test_quotient_heisenberg_by_center():
    q = quotient(heisenberg(1), center(heisenberg(1)))
    assert q.dim == 2 and q.bracket == {}


def test_quotient_requires_ideal():
    with pytest.raises(NotAnIdealError):
        quotient(heisenberg(1), Subspace.from_vectors(3, [{0: ONE}]))


# --- sums and standard families ---------------------------------------------------

def test_direct_sum_with_zero():
    a = heisenberg(1)
    assert direct_sum(a, abelian(0)).bracket == a.bracket


def test_direct_sum_of_abelians():
    assert direct_sum(abelian(2), abelian(3)).dim == 5
    assert direct_sum(abelian(2), abelian(3)).bracket == {}


def test_direct_sum_center():
    a = direct_sum(gh(3, 2, seed=0), abelian(1))
    assert center(a).dim == 3


def test_abelian_zero():
    assert abelian(0).dim == 0


def test_heisenberg_shapes():
    h1, h2 = heisenberg(1), heisenberg(2)
    assert h1.dim == 3 and nilpotency_class(h1) == 2
    assert h2.dim == 5 and center(h2).dim == 1
    assert derived_subalgebra(h2).dim == 1


# --- gh_construct ------------------------------------------------------------------

def test_free_class2_on_three_generators():
    a = gh(3, 3)
    assert a.dim == 6
    assert is_generalized_heisenberg(a)


def test_gh_with_explicit_relation():
    rel = relations_from_pairs(3, [(0, 1)])
    a = gh(3, 2, relation_subspace=rel)
    assert a.dim == 5
    assert nilpotency_class(a) == 2
    assert center(a) == derived_subalgebra(a)


def test_gh_triangle_fixture():
    a = canonical_gh(4, 3, "deficient")
    assert a.dim == 7
    assert is_generalized_heisenberg(a)


def test_center_violation_with_explicit_relations():
    # killing x1∧x2 and x1∧x3 at d=3 makes x1 central
    rel = relations_from_pairs(3, [(0, 1), (0, 2)])
    with pytest.raises(CenterViolation):
        gh(3, 1, relation_subspace=rel)


def test_center_violation_exhausts_retries_at_unrealizable_cell():
    # rank 1 at d=3 is a degenerate alternating form for every choice
    with pytest.raises(CenterViolation):
        gh(3, 1, seed=7)


class _ZeroRng:
    """Stands in for random.Random; every draw is 0, so no draw has full rank."""

    def randint(self, lo, hi):
        return 0


def test_retry_budget_raises_center_violation(monkeypatch):
    import _reference
    from ghlie import fixtures
    from ghlie.liealg import random_relation_subspace

    with pytest.raises(CenterViolation):
        random_relation_subspace(3, 1, _ZeroRng())
    for module in (fixtures, _reference):
        monkeypatch.setattr(module, "random", SimpleNamespace(Random=lambda seed: _ZeroRng()))
    with pytest.raises(CenterViolation):
        fixtures.seeded_gh(3, 2, seed=0)
    with pytest.raises(CenterViolation):
        _reference.random_class2(3, seed=0)


def test_gh_determinism():
    assert gh(4, 4, seed=11).bracket == gh(4, 4, seed=11).bracket


def test_constructors_pass_jacobi():
    for a in (abelian(4), heisenberg(2), gh(3, 2, seed=2), gh(4, 4, seed=3),
              canonical_gh(4, 3, "deficient"), canonical_gh(3, 2)):
        assert jacobi_check(a) == []


def test_gh_invariants():
    for d, rank, seed in ((3, 2, 0), (4, 4, 1), (5, 7, 2)):
        a = gh(d, rank, seed=seed)
        assert a.dim == d + rank
        assert [s.dim for s in lower_central_series(a)] == [d + rank, rank, 0]
        assert center(a) == derived_subalgebra(a)
        q = quotient(a, derived_subalgebra(a))
        assert q.bracket == {} and q.dim == a.dim - derived_subalgebra(a).dim


def test_is_generalized_heisenberg():
    # the rebase's Z(L) contains L², so Z(L) = L² iff their dimensions agree (gen's status)
    for a, want in ((heisenberg(1), True), (heisenberg(3), True), (abelian(2), False),
                    (gh(4, 5, seed=0), True), (canonical_gh(3, 2), False),
                    (direct_sum(heisenberg(1), abelian(1)), False)):
        _, rel2, z = rebase_class2(a)
        assert is_generalized_heisenberg(a) is want
        assert (z.dim == rel2.ambient_dim - rel2.dim) is want


# --- basis changes ------------------------------------------------------------------

def random_invertible(rng, n):
    while True:
        m = Matrix.from_dense([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        from ghlie.exactla import rank as mat_rank

        if mat_rank(m) == n:
            return m


def test_change_of_basis_preserves_invariants():
    rng = random.Random(5)
    a = gh(3, 2, seed=4)
    for _ in range(5):
        p = random_invertible(rng, a.dim)
        b = change_of_basis(a, p)
        assert jacobi_check(b) == []
        assert derived_subalgebra(b).dim == 2
        assert center(b).dim == 2
        assert nilpotency_class(b) == 2


def test_rebase_class2_restores_contract():
    rng = random.Random(9)
    a = gh(3, 2, seed=4)
    scrambled = change_of_basis(a, random_invertible(rng, a.dim))
    fixed, rel2, z = rebase_class2(scrambled)
    der = derived_subalgebra(fixed)
    assert der.pivots == (3, 4)
    assert all(len(v) == 1 for v in der.vectors())
    assert (rel2.ambient_dim, rel2.dim) == (3, 1)
    assert fixed == class2_from_relations(3, rel2)
    assert z == center(scrambled)
    assert rebase_class2(a)[0] == a  # class2_from_relations builds the same basis


def test_rebase_of_direct_sum_orders_generators_first():
    a = direct_sum(gh(3, 2, seed=4), abelian(2))
    fixed, rel2, z = rebase_class2(a)
    assert derived_subalgebra(fixed).pivots == (5, 6)
    assert (rel2.ambient_dim, rel2.dim) == (10, 8)
    assert fixed == class2_from_relations(5, rel2)
    assert z == center(a)


# --- bracket properties (hypothesis) ------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_ALGEBRA = canonical_gh(4, 2)
_coeff = st.integers(min_value=-3, max_value=3)
_vectors = st.dictionaries(
    st.integers(min_value=0, max_value=_ALGEBRA.dim - 1), _coeff, max_size=4
).map(lambda d: {k: F(v) for k, v in d.items() if v})


@given(_vectors, _vectors)
@settings(max_examples=60, deadline=None)
def test_bracket_antisymmetric_property(u, v):
    lhs = bracket_vectors(_ALGEBRA, u, v)
    rhs = {k: -x for k, x in bracket_vectors(_ALGEBRA, v, u).items()}
    assert lhs == rhs


@given(_vectors, _vectors, _vectors, _coeff, _coeff)
@settings(max_examples=60, deadline=None)
def test_bracket_bilinear_property(u, v, w, a, b):
    from ghlie.exactla import vec_axpy

    lin = {}
    vec_axpy(lin, a, u)
    vec_axpy(lin, b, v)
    lhs = bracket_vectors(_ALGEBRA, lin, w)
    rhs = {}
    vec_axpy(rhs, a, bracket_vectors(_ALGEBRA, u, w))
    vec_axpy(rhs, b, bracket_vectors(_ALGEBRA, v, w))
    assert lhs == rhs


# --- class-2 certificate and pivot-bracket rebase (differential) ---------------------

from ghlie.exactla import relations  # noqa: E402
from ghlie.exactla import rank as mat_rank  # noqa: E402
from ghlie.fixtures import seeded_gh  # noqa: E402
from _reference import random_class2  # noqa: E402
from ghlie.hopf import cover_construct, presentation_from_class2  # noqa: E402
from ghlie.liealg import ClassTwoRequired, JacobiViolation, class2_from_relations, wedge_pairs  # noqa: E402
from ghlie.multiplier import dimensions, psi2_image  # noqa: E402
from ghlie.report import analyze  # noqa: E402


def columns(m):
    """m's columns as sparse vectors: their relations are m's right null space."""
    return [{i: r[c] for i, r in enumerate(m.rows) if c in r} for c in range(m.cols)]


def _reference_rebase_class2(a):
    """rebase_class2 as it was: the class check by the lower central series,
    then change_of_basis onto the complement units of L² and L²'s RREF rows."""
    series = lower_central_series(a)
    if series[-1].dim or len(series) > 3:
        raise ClassTwoRequired("input must be nilpotent of class at most 2")
    der = series[1]
    n = a.dim - der.dim
    if der.pivots != tuple(range(n, a.dim)):
        rows = [{c: ONE} for c in der.complement_coords()] + der.vectors()
        a = change_of_basis(a, Matrix(a.dim, rows))
    return a, Subspace.from_vectors(a.dim, [{c: ONE} for c in range(n, a.dim)])


def _sl2():
    # e, f, h: [e, f] = h, [h, e] = 2e, [h, f] = -2f
    return LieAlgebra(3, "efh", {(0, 1): {2: ONE}, (0, 2): {0: F(-2)}, (1, 2): {1: F(2)}})


_CLASS2_ZOO = (
    lambda s: seeded_gh(3, 1, s),
    lambda s: seeded_gh(4, 1 + s % 3, s),
    lambda s: random_class2(3 + s % 2, s),
    lambda s: direct_sum(seeded_gh(3, 1 + s % 2, s), abelian(1 + s % 2)),
    lambda s: heisenberg(1 + s % 2),
    lambda s: direct_sum(heisenberg(1), abelian(1 + s % 2)),
    lambda s: abelian(s % 4),
)
_REJECTED_ZOO = (
    # class 3: the cover of H(1)
    lambda s: cover_construct(presentation_from_class2(heisenberg(1))).algebra,
    # not nilpotent
    lambda s: LieAlgebra(2, "xy", {(0, 1): {1: ONE}}),
    lambda s: direct_sum(_sl2(), heisenberg(1)),
    # Jacobi fails: [x1,x2]=x3, [x1,x3]=x1
    lambda s: LieAlgebra(3, "abc", {(0, 1): {2: ONE}, (0, 2): {0: ONE}}),
)


def _random_table(seed):
    """A random antisymmetric table on 3..5 coordinates: almost never a Lie algebra."""
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    table = {
        p: {k: F(rng.randint(-2, 2)) for k in rng.sample(range(n), rng.randint(1, 2))}
        for p in rng.sample(wedge_pairs(n), rng.randint(1, n))
    }
    return LieAlgebra(n, [f"v{k}" for k in range(n)], table)


def _in_rational_basis(a, seed):
    """a in a seeded basis with entries p/q, |p| <= 3, 1 <= q <= 3."""
    rng = random.Random(seed)
    while True:
        m = Matrix.from_dense([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.dim)]
                               for _ in range(a.dim)])
        if mat_rank(m) == a.dim:
            return change_of_basis(a, m)


def _check_rebase_against_reference(a):
    try:
        want = _reference_rebase_class2(a)
    except ClassTwoRequired:
        with pytest.raises(ClassTwoRequired):
            rebase_class2(a)
        return
    b, rel2, z = rebase_class2(a)
    b0, der0 = want
    der = derived_subalgebra(b)
    assert z == center(a)
    assert (b.dim, der.dim) == (b0.dim, der0.dim)
    n, r = b.dim - der.dim, der.dim
    # on the contract: L² is the trailing unit coordinates, and the table is a Lie algebra
    assert der == der0 and b == class2_from_relations(n, rel2)
    # the labels travel with their coordinates: generators first, then L²'s pivots
    a_der = derived_subalgebra(a)
    assert b.labels == tuple(a.labels[c] for c in a_der.complement_coords() + a_der.pivots)
    assert jacobi_check(b) == []
    assert presentation_from_class2(b, rel2).rel2 == rel2
    assert dimensions(psi2_image(b, rel2)) == dimensions(psi2_image(b0))
    pairs = wedge_pairs(n)
    last = len(pairs) - 1

    def flip(rows):
        return [{last - w: x for w, x in row.items()} for row in rows]

    # the generator brackets agree up to the change of derived basis: the
    # rebased constants are the RREF of the reference's with the pair columns
    # reversed, its rows taken by ascending pivot pair
    phi = [{w: b.pair(i, j)[n + s] for w, (i, j) in enumerate(pairs) if n + s in b.pair(i, j)}
           for s in range(r)]
    phi0 = [{w: b0.pair(i, j)[n + s] for w, (i, j) in enumerate(pairs) if n + s in b0.pair(i, j)}
            for s in range(r)]
    assert phi == flip(reversed(Subspace.from_vectors(len(pairs), flip(phi0)).vectors()))
    # rel2 is the kernel of the reference's pair map, whatever its derived basis
    assert rel2 == relations(columns(Matrix(len(pairs), phi0)))
    # each derived basis vector is the bracket of its pivot pair, the last pair
    # whose bracket has a term in it (a unit entry), and
    # generator i -> unit complement coordinate gens[i] of L² embeds b in a
    gens = a_der.complement_coords()
    images = [{g: ONE} for g in gens]
    for s in range(r):
        w = max(phi[s])
        assert b.pair(*pairs[w]) == {n + s: ONE}
        images.append(a.pair(gens[pairs[w][0]], gens[pairs[w][1]]))
    assert mat_rank(Matrix(a.dim, images)) == a.dim
    for i, j in itertools.combinations(range(b.dim), 2):
        want_img = bracket_vectors(a, images[i], images[j])
        got_img = {}
        for k, x in b.pair(i, j).items():
            vec_axpy(got_img, x, images[k])
        assert got_img == want_img, (i, j)


@given(st.integers(min_value=0, max_value=len(_CLASS2_ZOO) + len(_REJECTED_ZOO) - 1),
       st.integers(min_value=0, max_value=10**6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_rebase_matches_reference(kind, seed, rational):
    zoo = _CLASS2_ZOO + _REJECTED_ZOO
    a = zoo[kind](seed)
    _check_rebase_against_reference(_in_rational_basis(a, seed) if rational else a)


@given(st.integers(min_value=0, max_value=10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_rebase_verdict_on_random_tables(seed, rational):
    a = _random_table(seed)
    _check_rebase_against_reference(_in_rational_basis(a, seed) if rational else a)


def test_rebase_rejects_jacobi_violations():
    # L² ⊆ Z(L) makes every Jacobi term zero, so a violation always fails the certificate
    for seed in range(200):
        a = _random_table(seed)
        bad = jacobi_check(a)
        if bad:
            with pytest.raises(JacobiViolation) as exc:
                rebase_class2(a)
            assert exc.value.triples == bad
            assert str(exc.value) == f"Jacobi identity fails on triples {bad[:5]}"


def test_rebase_tells_jacobi_violations_from_class3():
    # every class-2 entry point rebases first, so each gives the rebase's verdict
    jacobi_fails, class3 = _REJECTED_ZOO[3](0), _REJECTED_ZOO[0](0)
    for entry in (rebase_class2, analyze, presentation_from_class2):
        for a in (jacobi_fails, _in_rational_basis(jacobi_fails, 1)):
            with pytest.raises(JacobiViolation) as exc:
                entry(a)
            assert isinstance(exc.value, ClassTwoRequired)
        for a in (class3, _in_rational_basis(class3, 1)):
            with pytest.raises(ClassTwoRequired) as exc:
                entry(a)
            assert not isinstance(exc.value, JacobiViolation)


# --- the rebase's one normal form: the basis class2_from_relations builds -----------

from ghlie.fixtures import defect_variants  # noqa: E402
from ghlie.liealg import class2_from_relations  # noqa: E402


def _random_relations(d, rng):
    """A wedge subspace of any dimension, spanned by rows of small nonzero entries."""
    n = d * (d - 1) // 2
    rows = [
        {c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in rng.sample(range(n), rng.randint(1, n))}
        for _ in range(rng.randint(0, n))
    ]
    return Subspace.from_vectors(n, rows)


def _reference_class2_from_relations_table(d, relations):
    """class2_from_relations's table as it was built: each pair reduced by quotient_coords."""
    table = {}
    for w, (i, j) in enumerate(wedge_pairs(d)):
        img = relations.quotient_coords({w: 1})
        if img:
            table[(i, j)] = {d + s: x for s, x in img.items()}
    return table


def _typed(table):
    return [(p, [(c, type(x), x) for c, x in v.items()]) for p, v in table.items()]


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_rebase_returns_class2_from_relations_tables(d, seed):
    rng = random.Random(seed)
    rel = _random_relations(d, rng)
    a = class2_from_relations(d, rel)
    # the table read off the RREF rows is the one the reductions built, key order and types too
    assert _typed(a.bracket) == _typed(_reference_class2_from_relations_table(d, rel))
    # L² is the y block, the unit rows past the generators, as gh_construct builds it
    assert derived_subalgebra(a) == Subspace.from_vectors(a.dim, [{k: 1} for k in range(d, a.dim)])
    # the rebase hands back the relations it was built from, and the same table
    b, rel2, z = rebase_class2(a)
    assert (b, b.labels, rel2, z) == (a, a.labels, rel, center(a))
    # off the contract the rebase lands in the same normal form, so it is idempotent
    off = [direct_sum(a, abelian(rng.randint(1, 2)))]
    if a.dim <= 10:
        off.append(_in_rational_basis(a, seed))
    for c in off:
        b = rebase_class2(c)[0]
        assert rebase_class2(b)[0] == b


def test_rebase_returns_canonical_heisenberg_and_abelian_tables():
    tables = [
        canonical_gh(d, defect, variant)
        for d in range(3, 9)
        for defect in (1, 2, 3)
        if defect < 3 or d >= 4
        for variant in defect_variants(d, defect)
    ]
    tables += [heisenberg(m) for m in range(1, 5)] + [abelian(n) for n in range(5)]
    for a in tables:
        assert rebase_class2(a)[0] == a


# --- brackets from the table's nonzeros (differential) -------------------------------
#
# center reads only the rows (j, k) at L²'s pivots, and lower_central_series,
# quotient's ideal check and jacobi_check bracket through the adjoint index of
# the stored brackets.  The scans they replace are kept here as references.

from ghlie.docio import write_document  # noqa: E402
from ghlie.exactla import vec  # noqa: E402
from ghlie.fixtures import with_abelian_part  # noqa: E402


def _reference_center(a):
    """center as it was: the kernel of every row (j, k) of the stacked adjoint maps."""
    n = a.dim
    rows = {}
    for (i, j), w in a.bracket.items():
        for k, x in w.items():
            rows.setdefault(j * n + k, {})[i] = x
            rows.setdefault(i * n + k, {})[j] = -x
    return relations(columns(Matrix(n, rows.values())))


def _reference_lower_central_series(a):
    """lower_central_series as it was: bracket_vectors(a, u, e_j) for every u and every j."""
    series = [Subspace.full(a.dim), derived_subalgebra(a)]
    while True:
        prev = series[-1]
        if prev.dim == 0:
            break
        gens = [
            w
            for u in prev.vectors()
            for j in range(a.dim)
            if (w := bracket_vectors(a, u, {j: ONE}))
        ]
        nxt = Subspace.from_vectors(a.dim, gens)
        if nxt == prev:
            break
        series.append(nxt)
    return series


def _reference_quotient(a, ideal):
    """quotient as it was: every ideal vector bracketed with every e_j by bracket_vectors."""
    for u in ideal.vectors():
        for j in range(a.dim):
            if not ideal.contains_vec(bracket_vectors(a, u, {j: ONE})):
                raise NotAnIdealError("subspace is not an ideal")
    return _all_pairs_quotient(a, ideal)


def _all_pairs_quotient(a, ideal):
    """quotient's table as it was built: quotient_coords of every pair of complement coordinates."""
    comp = ideal.complement_coords()
    table = {}
    for s, t in itertools.combinations(range(len(comp)), 2):
        img = ideal.quotient_coords(a.pair(comp[s], comp[t]))
        if img:
            table[(s, t)] = img
    return LieAlgebra(len(comp), tuple(a.labels[c] for c in comp), table)


def _reference_jacobi_check(a):
    """jacobi_check as it was: three bracket_vectors calls per triple."""
    bad = []
    e = [{i: ONE} for i in range(a.dim)]
    for i, j, k in itertools.combinations(range(a.dim), 3):
        acc = dict(bracket_vectors(a, a.pair(i, j), e[k]))
        vec_axpy(acc, ONE, bracket_vectors(a, a.pair(k, i), e[j]))
        vec_axpy(acc, ONE, bracket_vectors(a, a.pair(j, k), e[i]))
        if acc:
            bad.append((i, j, k))
    return bad


def _class_marker(series):
    """verify_cover's class: the nonzero terms, or -1 when the series stalls above zero."""
    return sum(1 for t in series if t.dim) if series[-1].dim == 0 else -1


def _candidate_ideals(a, rng):
    """L², Z(L), and lines, planes and Z(L) + a line, which are often not ideals."""
    if a.dim == 0:
        return [Subspace.zero(0)]
    z = _reference_center(a)
    lines = [{0: ONE}, {a.dim - 1: ONE}, vec({c: F(rng.randint(-3, 3), rng.randint(1, 3)) for c in range(a.dim)})]
    plane = [{rng.randrange(a.dim): ONE}, vec({c: rng.randint(-2, 2) for c in range(a.dim)})]
    # Z(L) plus a unit line at or past Z(L)'s first pivot, often not central
    central_first = z.vectors() + [{rng.randrange(min(z.pivots, default=0), a.dim): ONE}]
    return [derived_subalgebra(a), z] + [
        Subspace.from_vectors(a.dim, vs) for vs in [plane, central_first] + [[v] for v in lines]
    ]


def _check_center_modulo(a, der, z, central):
    """center(a, der, central) is Z(L) when central ⊆ Z(L), and raises NotCentral otherwise."""
    if all(z.contains_vec(v) for v in central.vectors()):
        assert center(a, der, central) == z
    else:
        with pytest.raises(NotCentral):
            center(a, der, central)


def _check_brackets_against_reference(a, ideals=()):
    der = derived_subalgebra(a)
    z = _reference_center(a)
    assert center(a) == z
    assert center(a, der) == z
    for central in (der, z, *ideals):
        _check_center_modulo(a, der, z, central)
    series = _reference_lower_central_series(a)
    assert lower_central_series(a) == series
    assert lower_central_series(a, der) == series
    assert _class_marker(lower_central_series(a, der)) == _class_marker(series)
    assert jacobi_check(a) == _reference_jacobi_check(a)
    outcomes = set()
    for sub in ideals:
        try:
            want = _reference_quotient(a, sub)
        except NotAnIdealError:
            with pytest.raises(NotAnIdealError):
                quotient(a, sub)
            outcomes.add("not an ideal")
            continue
        got = quotient(a, sub)
        assert got == want and got.labels == want.labels
        outcomes.add("ideal")
    return outcomes


@given(st.integers(min_value=0, max_value=len(_CLASS2_ZOO) + len(_REJECTED_ZOO)),
       st.integers(min_value=0, max_value=10**6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_brackets_match_reference_on_the_zoo(kind, seed, rational):
    # class <= 2, class 3, not nilpotent, Jacobi failing, and random tables
    zoo = _CLASS2_ZOO + _REJECTED_ZOO + (_random_table,)
    a = zoo[kind](seed)
    if rational:
        a = _in_rational_basis(a, seed)
    _check_brackets_against_reference(a, _candidate_ideals(a, random.Random(seed)))


def _harness_algebra(d, t, seed):
    """The harness's class-2 cores (d + t <= 5 generators), in a random rational basis."""
    core = random_class2(d, seed) if seed % 2 else seeded_gh(d, 1 + seed % 3 if d == 4 else 1 + seed % 2, seed)
    return _in_rational_basis(with_abelian_part(core, min(t, 5 - d)), seed)


@given(st.integers(3, 4), st.integers(0, 2), st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_brackets_match_reference_on_harness_algebras_and_covers(d, t, seed):
    rng = random.Random(seed)
    a = _harness_algebra(d, t, seed)
    _check_brackets_against_reference(a, _candidate_ideals(a, rng))
    cov = cover_construct(presentation_from_class2(a))
    ideals = [cov.central_ideal] + _candidate_ideals(cov.algebra, rng)
    assert _check_brackets_against_reference(cov.algebra, ideals) == {"ideal", "not an ideal"}


def test_brackets_match_reference_on_standard_families():
    for a in [heisenberg(m) for m in range(1, 4)] + [abelian(n) for n in range(4)]:
        _check_brackets_against_reference(a, _candidate_ideals(a, random.Random(a.dim)))
    # the -1 class marker and class 3 come out of the new series as from the old
    h1_cover = _REJECTED_ZOO[0](0)
    assert _class_marker(lower_central_series(h1_cover)) == 3
    for make in _REJECTED_ZOO[1:3]:
        a = make(0)
        assert _class_marker(lower_central_series(a)) == -1
        assert _class_marker(_reference_lower_central_series(a)) == -1
        _check_brackets_against_reference(a)


def test_quotient_by_a_non_ideal_raises_like_the_reference():
    for a, vectors in [
        (heisenberg(1), [{0: ONE}]),
        (direct_sum(abelian(1), heisenberg(1)), [{0: ONE}, {1: ONE}]),  # a1 central, x1 not
        (heisenberg(2), [{0: ONE, 2: ONE}]),
        (_REJECTED_ZOO[0](0), [{1: ONE}, {2: ONE}]),
        (_sl2(), [{2: ONE}]),
    ]:
        sub = Subspace.from_vectors(a.dim, vectors)
        with pytest.raises(NotAnIdealError):
            _reference_quotient(a, sub)
        with pytest.raises(NotAnIdealError):
            quotient(a, sub)


def test_jacobi_check_matches_reference_on_failing_tables(tmp_path, capsys):
    from ghlie.cli import main

    failing = 0
    for seed in range(200):
        a = _random_table(seed)
        for b in (a, _in_rational_basis(a, seed)) if seed < 40 else (a,):
            want = _reference_jacobi_check(b)
            assert jacobi_check(b) == want, seed
            failing += bool(want)
    assert failing > 100
    # the CLI's exit 4 and its message read the same triples
    a = next(t for t in map(_random_table, range(200)) if _reference_jacobi_check(t))
    want = _reference_jacobi_check(a)
    path = str(tmp_path / "t.json")
    write_document(path, a)
    assert main(["analyze", path]) == 4
    assert capsys.readouterr().err == f"error: Jacobi identity fails on triples {want[:5]}\n"


# --- the center modulo a subspace claimed central (differential) ---------------------
#
# rebase_class2 reads Z(L) as L² plus a kernel over the generator coordinates, after
# checking in integers that L² is central; _check_brackets_against_reference compares
# center(a, der, central) with the full kernel _reference_center on the zoo, for
# central = L², Z(L) and the candidate ideals.

from ghlie import liealg  # noqa: E402
from ghlie.liealg import NotCentral  # noqa: E402


def test_center_modulo_a_noncentral_subspace_raises():
    h = heisenberg(1)  # x1, x2, z with [x1, x2] = z
    for vectors in ([{0: ONE}], [{1: ONE}], [{2: ONE}, {0: F(1, 2), 1: F(-3)}]):
        with pytest.raises(NotCentral):
            center(h, None, Subspace.from_vectors(3, vectors))
    assert center(h, None, Subspace.from_vectors(3, [{2: F(-2, 3)}])) == _reference_center(h)
    # a1 of H(1) + A(1) is central and not in L²: Z = span(z, a1) from either half
    a = direct_sum(heisenberg(1), abelian(1))
    for central in ([{2: ONE}], [{3: ONE}], [{2: ONE}, {3: ONE}], []):
        assert center(a, None, Subspace.from_vectors(4, central)) == _reference_center(a)


def test_center_matches_reference_with_abelian_summands_and_rational_bases():
    # Z(H(m) ⊕ A(t)) is z plus the abelian summand; the relations over the
    # complement coordinates take the wide path for abelian(1) and H(1) + A(t)
    plain = [(direct_sum(heisenberg(m), abelian(t)), 1 + t) for m in (1, 2) for t in (1, 2, 3)]
    plain += [(with_abelian_part(seeded_gh(4, 2, 0), 2), 6), (abelian(1), 1)]
    cases = plain + [(_in_rational_basis(a, s), dim) for s, (a, dim) in enumerate(plain)]
    for a, dim in cases:
        z = _reference_center(a)
        der = derived_subalgebra(a)
        assert z.dim == dim
        assert center(a) == center(a, der) == center(a, der, der) == z
        assert rebase_class2(a)[2] == z


def test_class3_and_non_nilpotent_tables_fail_the_certificate():
    for make in _REJECTED_ZOO[:3]:  # the cover of H(1), and two non-nilpotent tables
        for a in (make(0), _in_rational_basis(make(0), 1), _in_rational_basis(make(0), 2)):
            der = derived_subalgebra(a)
            with pytest.raises(NotCentral):
                center(a, der, der)
            with pytest.raises(ClassTwoRequired):
                rebase_class2(a)
            assert is_generalized_heisenberg(a) is False


def test_rebase_center_kernel_has_only_the_generator_columns(monkeypatch):
    # seeded_gh(5, 1, s) has dim 14 with 5 generators; the full kernel had 14 columns
    cols = []

    def counted(vectors):
        cols.append(len(vectors))
        return relations(vectors)

    monkeypatch.setattr(liealg, "relations", counted)
    for seed in range(3):
        a = _in_rational_basis(seeded_gh(5, 1, seed), seed)
        cols.clear()
        z = rebase_class2(a)[2]
        # the center's kernel over the 5 generator columns, then rel2's over the 10 pairs
        assert (a.dim, cols) == (14, [5, 10])
        assert z == derived_subalgebra(a)


from ghlie.fixtures import grid_cases  # noqa: E402
from ghlie.sweep import SweepConfig  # noqa: E402


def test_quotient_table_matches_the_all_pairs_build():
    # quotient reads only the stored brackets of two complement coordinates;
    # its table is the all-pairs build's, key order and value types too, on
    # each unit central line of the default grid (the lines ghlie capable
    # takes), also with each table stored in reverse order as a document may
    # list it, and on cover/B for the cover of every grid case
    cfg = SweepConfig()
    grid = [c.build() for c in grid_cases(cfg.d_values, cfg.defects, cfg.t_values, cfg.seeds)]
    cases = grid + [LieAlgebra(a.dim, a.labels, dict(reversed(a.bracket.items()))) for a in grid]
    pairs = [(a, Subspace.from_vectors(a.dim, [{c: 1}])) for a in cases for z in [center(a)]
             for c in range(a.dim) if z.contains_vec({c: 1})]
    covers = [cover_construct(presentation_from_class2(a)) for a in grid]
    pairs += [(cov.algebra, cov.central_ideal) for cov in covers]
    for a, ideal in pairs:
        got, want = quotient(a, ideal), _all_pairs_quotient(a, ideal)
        assert _typed(got.bracket) == _typed(want.bracket) and got.labels == want.labels
    assert len(grid) == 207 and len(pairs) >= 3000
