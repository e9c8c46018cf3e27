import itertools
import random
from fractions import Fraction

import pytest

from ghlie.exactla import Matrix, Subspace, kernel_basis, rank, rref, vec_axpy
from ghlie.fixtures import canonical_gh, grid_cases, random_class2, seeded_gh
from ghlie.liealg import (
    GhSpec,
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
)
from ghlie.hopf import (
    cover_construct,
    extension_witness,
    exterior_center,
    exterior_square_oracle,
    free_bracket,
    hall_basis,
    hopf_multiplier_dim,
    ker_beta,
    presentation_from_class2,
    verify_cover,
    wedge_gen_bracket,
)
from ghlie.multiplier import dimensions, psi2_image

F = Fraction
ONE = F(1)


def gh(d, rank, seed=0):
    return gh_construct(GhSpec(d=d, rank=rank, seed=seed))


# --- Hall basis ------------------------------------------------------------------

def test_hall_counts():
    for d, expect in ((2, (2, 1, 2)), (3, (3, 3, 8)), (4, (4, 6, 20)), (6, (6, 15, 70))):
        h = hall_basis(d)
        assert (h.d, h.grade2_dim, h.grade3_dim) == expect
        assert h.grade3_dim == (d**3 - d) // 3
        assert h.dim == sum(expect)


def test_free_bracket_basics():
    h = hall_basis(3)
    assert free_bracket(h, {0: ONE}, {0: ONE}) == {}
    # [[x1,x2],x3] is already basic
    s12 = h.pair_coord(h.pair_index[(0, 1)])
    m = free_bracket(h, {s12: ONE}, {2: ONE})
    assert m == {h.triple_coord(h.triple_index[(0, 1, 2)]): ONE}
    # [[x2,x3],x1] rewrites through one Jacobi step
    s23 = h.pair_coord(h.pair_index[(1, 2)])
    got = free_bracket(h, {s23: ONE}, {0: ONE})
    assert got == {
        h.triple_coord(h.triple_index[(0, 2, 1)]): ONE,
        h.triple_coord(h.triple_index[(0, 1, 2)]): -ONE,
    }


def exhaustive_antisymmetry_and_jacobi(d):
    h = hall_basis(d)
    units = [{i: ONE} for i in range(h.dim)]
    for a, b in itertools.combinations(range(h.dim), 2):
        lhs = free_bracket(h, units[a], units[b])
        rhs = {c: -x for c, x in free_bracket(h, units[b], units[a]).items()}
        assert lhs == rhs
    for a, b, c in itertools.combinations(range(h.dim), 3):
        acc = dict(free_bracket(h, free_bracket(h, units[a], units[b]), units[c]))
        vec_axpy(acc, ONE, free_bracket(h, free_bracket(h, units[c], units[a]), units[b]))
        vec_axpy(acc, ONE, free_bracket(h, free_bracket(h, units[b], units[c]), units[a]))
        assert acc == {}


def test_free_bracket_antisymmetry_and_jacobi_small():
    for d in (2, 3, 4):
        exhaustive_antisymmetry_and_jacobi(d)


def test_grading():
    h = hall_basis(3)
    for a in range(h.dim):
        for b in range(h.dim):
            w = free_bracket(h, {a: ONE}, {b: ONE})
            ga, gb = h.grade_of(a), h.grade_of(b)
            if ga + gb > 3:
                assert w == {}
            else:
                assert all(h.grade_of(c) == ga + gb for c in w)


# --- presentations ------------------------------------------------------------------

def test_presentation_of_free_class2():
    p = presentation_from_class2(gh(3, 3))
    assert p.rel2.dim == 0
    assert p.rel_bracket_span.dim == 0


def test_presentation_of_defect_one():
    p = presentation_from_class2(canonical_gh(3, 1))
    assert p.rel2.dim == 1
    assert p.rel_bracket_span.dim == 3


def test_lifts_map_onto_the_derived_basis():
    # φ(lift_s) = y_s with the lift supported on the pivot columns of RREF(φ):
    # that pins the lift to the unique solution whose free coordinates are 0
    for a in (canonical_gh(4, 2), heisenberg(2), random_class2(4, 3), random_class2(5, 8)):
        p = presentation_from_class2(a)
        t, h = p.target, p.hall
        phi = Matrix(h.grade2_dim, [
            {w: x for w, ij in enumerate(h.pairs) for k, x in t.pair(*ij).items() if k == h.d + s}
            for s in range(len(p.lifts))
        ])
        pivots = {min(row) for row in rref(phi)[0].rows if row}
        for s, lift in enumerate(p.lifts):
            assert set(lift) <= pivots
            image = {}
            for w, x in lift.items():
                vec_axpy(image, x, t.pair(*h.pairs[w]))
            assert image == {h.d + s: ONE}


def test_presentation_of_heisenberg1():
    p = presentation_from_class2(heisenberg(1))
    assert p.hall.grade2_dim == 1
    assert p.rel2.dim == 0


# --- Hopf numbers ---------------------------------------------------------------------

def test_hopf_multiplier_values():
    assert hopf_multiplier_dim(presentation_from_class2(gh(3, 3))) == 8
    assert hopf_multiplier_dim(presentation_from_class2(canonical_gh(3, 1))) == 6
    assert hopf_multiplier_dim(presentation_from_class2(abelian(3))) == 3
    assert hopf_multiplier_dim(presentation_from_class2(heisenberg(1))) == 2
    assert hopf_multiplier_dim(presentation_from_class2(heisenberg(2))) == 5


def test_exterior_square_and_ker_beta():
    a = canonical_gh(3, 1)
    p = presentation_from_class2(a)
    assert exterior_square_oracle(p) == 8
    kb = ker_beta(p)
    assert kb.dim == 1
    assert kb == psi2_image(a).image
    p_free = presentation_from_class2(gh(3, 3))
    assert ker_beta(p_free).dim == 1  # 9 - 8


def test_oracle_concordance_on_random_class2():
    for d in (3, 4):
        for seed in range(8):
            a = random_class2(d, seed)
            p = presentation_from_class2(a)
            assert hopf_multiplier_dim(p) == dimensions(psi2_image(a))["m_L"]
            assert ker_beta(p) == psi2_image(a).image


# --- exterior center --------------------------------------------------------------------

def test_exterior_center_verdicts():
    assert exterior_center(presentation_from_class2(canonical_gh(3, 1))).dim == 0
    zc = exterior_center(presentation_from_class2(heisenberg(2)))
    assert zc.dim == 1 and zc.contains_vec({4: ONE})  # the center survives
    assert exterior_center(presentation_from_class2(abelian(2))).dim == 0
    assert exterior_center(presentation_from_class2(abelian(4))).dim == 0
    assert exterior_center(presentation_from_class2(abelian(1))).dim == 1


# --- covers -----------------------------------------------------------------------------

def test_cover_of_gh32():
    a = canonical_gh(3, 1)
    cov = cover_construct(presentation_from_class2(a))
    assert cov.algebra.dim == 11
    assert jacobi_check(cov.algebra) == []
    rep = verify_cover(a, cov.algebra, cov.central_ideal)
    assert rep.nilpotency_class == 3
    assert rep.s == 1 and rep.cube_dim == 5
    assert rep.witness_ok is True
    assert rep.ok


def test_cover_of_free_class2_is_free_class3():
    a = gh(3, 3)
    cov = cover_construct(presentation_from_class2(a))
    assert cov.algebra.dim == 14
    rep = verify_cover(a, cov.algebra, cov.central_ideal)
    assert rep.s == 0 and rep.b_dim == rep.cube_dim == 8
    assert rep.ok


def test_cover_of_heisenberg1():
    cov = cover_construct(presentation_from_class2(heisenberg(1)))
    assert cov.algebra.dim == 5


def test_cover_of_heisenberg_m_has_class_2():
    # M(H(m)) = Λ²(L/L²)/L² for m >= 2: K is all of L² ⊗ L/L², so (L*)³ = 0
    for m in (2, 3):
        a = heisenberg(m)
        cov = cover_construct(presentation_from_class2(a))
        rep = verify_cover(a, cov.algebra, cov.central_ideal)
        assert (rep.nilpotency_class, rep.expected_class, rep.cube_dim) == (2, 2, 0)
        assert rep.ok


def test_verify_cover_b_central_matches_bracket_scan():
    # B ⊆ Z(cover) against the bracket scan it replaced, on central and
    # non-central ideals; a subspace that is not an ideal is refused
    for a in (canonical_gh(3, 1), canonical_gh(4, 2), direct_sum(heisenberg(1), abelian(1))):
        cov = cover_construct(presentation_from_class2(a))
        c = cov.algebra
        ideals = [cov.central_ideal, center(c), *lower_central_series(c)]
        scans = [all(not bracket_vectors(c, u, {j: ONE}) for u in b.vectors() for j in range(c.dim))
                 for b in ideals]
        assert not all(scans)
        assert [verify_cover(a, c, b).b_central for b in ideals] == scans
        with pytest.raises(NotAnIdealError):
            verify_cover(a, c, Subspace.from_vectors(c.dim, [{0: ONE}]))


def test_cover_of_defect_two():
    a = canonical_gh(4, 2)
    cov = cover_construct(presentation_from_class2(a))
    rep = verify_cover(a, cov.algebra, cov.central_ideal)
    assert rep.ok
    assert rep.s in (0, 1, 2)
    assert rep.b_dim == 14


def test_cover_center_inside_derived():
    for a in (canonical_gh(3, 1), canonical_gh(4, 3, "deficient")):
        cov = cover_construct(presentation_from_class2(a))
        der = derived_subalgebra(cov.algebra)
        assert all(der.contains_vec(v) for v in center(cov.algebra).vectors())


def test_extension_witness_shape():
    a = canonical_gh(3, 1)
    p = presentation_from_class2(a)
    lstar = extension_witness(p)
    # d + r + C(d,2) + (r·d - dim K) = 3 + 2 + 3 + 5
    assert lstar.dim == 13
    assert jacobi_check(lstar) == []
    assert [s.dim for s in lower_central_series(lstar)][-1] == 0


def test_defect3_capability_observed():
    # not claimed by the paper; the oracle verdict is recorded as observation
    for variant in ("generic", "deficient"):
        p = presentation_from_class2(canonical_gh(4, 3, variant))
        assert exterior_center(p).dim == 0


def test_cover_of_rebased_input():
    # presentation re-bases inputs that are off the basis contract
    from ghlie.liealg import direct_sum

    a = direct_sum(canonical_gh(3, 1), abelian(1))
    p = presentation_from_class2(a)
    assert p.hall.d == 4
    rep = verify_cover(a, *_cover_pair(p))
    assert rep.quotient_matches


def _cover_pair(p):
    cov = cover_construct(p)
    return cov.algebra, cov.central_ideal


# --- the direct Hall rewrite and the shared β map against their earlier code ------------

def _reference_wedge_gen_bracket(h, w, g):
    """_grade3_part(free_bracket(h, w in Hall coordinates, x_g)) as it was computed
    before the direct rewrite: the old _pair_gen_bracket on each pair, then the
    grade-3 coordinates shifted to start at 0."""
    out = {}
    for c, x in w.items():
        i, j = h.pairs[c]
        if g >= i:
            term = {h.triple_coord(h.triple_index[(i, j, g)]): ONE}
        else:
            term = {
                h.triple_coord(h.triple_index[(g, j, i)]): ONE,
                h.triple_coord(h.triple_index[(g, i, j)]): -ONE,
            }
        vec_axpy(out, x, term)
    off = h.d + h.grade2_dim
    return {c - off: x for c, x in out.items() if c >= off}


def test_wedge_gen_bracket_matches_reference():
    rng = random.Random(0)
    for d in range(1, 7):
        h = hall_basis(d)
        off = h.d + h.grade2_dim
        vectors = [{w: ONE} for w in range(h.grade2_dim)]
        for _ in range(20 if h.grade2_dim else 0):
            support = rng.sample(range(h.grade2_dim), rng.randint(1, h.grade2_dim))
            vectors.append({w: F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)) for w in support})
        for w in vectors:
            for g in range(d):
                want = _reference_wedge_gen_bracket(h, w, g)
                got = wedge_gen_bracket(h, w, g)
                assert list(got.items()) == list(want.items()), (d, w, g)
                # free_bracket reads the same rule through basis_bracket, in both orders
                emb = {h.pair_coord(c): x for c, x in w.items()}
                assert free_bracket(h, emb, {g: ONE}) == {off + m: x for m, x in want.items()}
                assert free_bracket(h, {g: ONE}, emb) == {off + m: -x for m, x in want.items()}


def _reference_ker_beta(p):
    """ker_beta as it was before the β map was shared: every image built per call."""
    h = p.hall
    d = h.d
    r = len(p.lifts)
    rf = p.rel_bracket_span
    rows = [{} for _ in range(h.grade3_dim - rf.dim)]
    for s in range(r):
        for g in range(d):
            w3 = _reference_wedge_gen_bracket(h, p.lifts[s], g)
            for q, x in rf.quotient_coords(w3).items():
                rows[q][s * d + g] = x
    return kernel_basis(Matrix(r * d, rows))


def _reference_exterior_center(p):
    """exterior_center as it was before the β map was shared."""
    h = p.hall
    d = h.d
    r = len(p.lifts)
    rf = p.rel_bracket_span
    rows = []
    for k in range(d):
        rows.extend({i: ONE} for i in range(d) if i != k)
        by_q = {}
        for s in range(r):
            w3 = _reference_wedge_gen_bracket(h, p.lifts[s], k)
            for q, x in rf.quotient_coords(w3).items():
                by_q.setdefault(q, {})[d + s] = x
        rows.extend(by_q.values())
    return kernel_basis(Matrix(d + r, rows))


def rational_basis(a, seed):
    """a in a seeded basis with entries p/q, |p| <= 3, 1 <= q <= 3."""
    rng = random.Random(seed)
    while True:
        m = Matrix.from_dense([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.dim)] for _ in range(a.dim)])
        if rank(m) == a.dim:
            return change_of_basis(a, m)


def test_shared_beta_matches_per_call_reference():
    inputs = [c.build() for c in grid_cases((3, 4, 5), (1, 2, 3), (0, 1), 1)]
    inputs += [direct_sum(heisenberg(1), abelian(t)) for t in range(3)]
    inputs += [abelian(n) for n in range(5)]
    inputs += [
        rational_basis(seeded_gh(4, 1, 0), 1),
        rational_basis(random_class2(4, 3), 2),
        rational_basis(direct_sum(heisenberg(1), abelian(1)), 3),
    ]
    for a in inputs:
        p = presentation_from_class2(a)
        want_kb, want_ec = _reference_ker_beta(p), _reference_exterior_center(p)
        assert ker_beta(p) == want_kb
        assert exterior_center(p) == want_ec
        assert ker_beta(p) == want_kb
        q = presentation_from_class2(a)
        assert exterior_center(q) == want_ec
        assert ker_beta(q) == want_kb
        assert exterior_center(q) == want_ec
