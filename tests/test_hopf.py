import itertools
from fractions import Fraction

from ghlie.exactla import Matrix, rref, vec_axpy
from ghlie.fixtures import canonical_gh, random_class2
from ghlie.liealg import (
    GhSpec,
    abelian,
    center,
    derived_subalgebra,
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
