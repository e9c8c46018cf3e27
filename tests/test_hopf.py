import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from ghlie import exactla, hopf
from ghlie.exactla import Matrix, Subspace, rank, relations, vec_axpy
from ghlie.fixtures import canonical_gh, grid_cases, seeded_gh, with_abelian_part
from ghlie.liealg import (
    ClassTwoRequired,
    GhSpec,
    LieAlgebra,
    NotAnIdealError,
    abelian,
    bracket_vectors,
    center,
    change_of_basis,
    class2_from_relations,
    derived_subalgebra,
    direct_sum,
    gh_construct,
    heisenberg,
    integral_table,
    jacobi_check,
    lower_central_series,
    quotient,
    rebase_class2,
    wedge_pairs,
)
from ghlie.hopf import (
    cover_construct,
    extension_witness,
    exterior_center,
    exterior_square_oracle,
    hall_basis,
    hopf_multiplier_dim,
    ker_beta,
    presentation_from_class2,
    verify_cover,
    wedge_gen_bracket,
)
from ghlie.multiplier import dimensions, psi2_image
from ghlie.report import analyze

from _reference import (
    assert_prepass_agrees,
    random_class2,
    reference_beta_images,
    reference_bracket_image,
    reference_extension_witness,
    reference_ker_beta_agrees,
    reference_triple_images,
    reference_verify_cover,
)

F = Fraction
ONE = F(1)


def gh(d, rank, seed=0):
    return gh_construct(GhSpec(d=d, rank=rank, seed=seed))


# --- Hall basis and the bracket of F_{d,3} ------------------------------------------

def free_class3(d):
    """F_{d,3} as cover_construct writes it: the cover of the free class-2 algebra
    on d generators, where R = F³ and [R,F] = 0, so basis index d + g2 + m is triple m."""
    free2 = class2_from_relations(d, Subspace.zero(d * (d - 1) // 2))
    return cover_construct(presentation_from_class2(free2)).algebra


def grade(h, idx):
    return 1 if idx < h.d else 2 if idx < h.d + h.grade2_dim else 3


def assert_graded(f, h):
    """Every stored bracket [e_a, e_b] has grade(a) + grade(b) <= 3 and lies in that grade."""
    for (a, b), v in f.bracket.items():
        g = grade(h, a) + grade(h, b)
        assert g <= 3 and all(grade(h, c) == g for c in v), (a, b, v)


def test_hall_counts():
    for d, expect in ((2, (2, 1, 2)), (3, (3, 3, 8)), (4, (4, 6, 20)), (6, (6, 15, 70))):
        h = hall_basis(d)
        assert (h.d, h.grade2_dim, h.grade3_dim) == expect
        assert h.grade3_dim == (d**3 - d) // 3
        assert free_class3(d).dim == sum(expect)


def test_free_bracket_basics():
    h = hall_basis(3)
    f = free_class3(3)
    off = h.d + h.grade2_dim
    assert f.pair(0, 0) == {}
    s12 = h.d + h.pair_index[(0, 1)]
    assert f.pair(0, 1) == {s12: ONE}
    # [[x1,x2],x3] is already basic
    assert f.pair(s12, 2) == {off + h.triple_index[(0, 1, 2)]: ONE}
    # [[x2,x3],x1] rewrites through one Jacobi step
    s23 = h.d + h.pair_index[(1, 2)]
    assert f.pair(s23, 0) == {
        off + h.triple_index[(0, 2, 1)]: ONE,
        off + h.triple_index[(0, 1, 2)]: -ONE,
    }


def test_free_bracket_antisymmetry_and_jacobi_small():
    # antisymmetry is built into the table (i < j stored); Jacobi over every basis triple
    for d in (2, 3, 4):
        assert jacobi_check(free_class3(d)) == []


def test_grading():
    for d in (2, 3):
        assert_graded(free_class3(d), hall_basis(d))


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
    # φ(lift_s) = y_s with the lift one unit entry: the last pair whose bracket
    # has a y_s term, and in the rebased basis that bracket is y_s itself
    for a in (canonical_gh(4, 2), heisenberg(2), random_class2(4, 3), random_class2(5, 8),
              rational_basis(seeded_gh(4, 2, 1), 4), direct_sum(heisenberg(1), abelian(2))):
        p = presentation_from_class2(a)
        t, h = p.target, p.hall
        for s, lift in enumerate(p.lifts):
            [(w, x)] = lift.items()
            assert x == 1
            assert t.pair(*h.pairs[w]) == {h.d + s: ONE}
            assert all(h.d + s not in t.pair(*h.pairs[v]) for v in range(w + 1, h.grade2_dim))


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
    """The grade-3 part of the old free bracket [w, x_g] as it was computed before
    the direct rewrite: the old _pair_gen_bracket on each pair, summed."""
    out = {}
    for c, x in w.items():
        i, j = h.pairs[c]
        if g >= i:
            term = {h.triple_index[(i, j, g)]: ONE}
        else:
            term = {
                h.triple_index[(g, j, i)]: ONE,
                h.triple_index[(g, i, j)]: -ONE,
            }
        vec_axpy(out, x, term)
    return out


def test_wedge_gen_bracket_matches_reference():
    rng = random.Random(0)
    for d in range(1, 7):
        h = hall_basis(d)
        f = free_class3(d)
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
                # the cover's table reads the same rule, in both orders
                emb = {h.d + c: x for c, x in w.items()}
                assert bracket_vectors(f, emb, {g: ONE}) == {off + m: x for m, x in want.items()}
                assert bracket_vectors(f, {g: ONE}, emb) == {off + m: -x for m, x in want.items()}


def columns(m):
    """m's columns as sparse vectors: their relations are m's right null space."""
    return [{i: r[c] for i, r in enumerate(m.rows) if c in r} for c in range(m.cols)]


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
    return relations(columns(Matrix(r * d, rows)))


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
    return relations(columns(Matrix(d + r, rows)))


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
    inputs += [direct_sum(heisenberg(2), abelian(t)) for t in (1, 2)] + [with_abelian_part(seeded_gh(4, 2, 0), 2)]
    inputs += [
        rational_basis(seeded_gh(4, 1, 0), 1),
        rational_basis(random_class2(4, 3), 2),
        rational_basis(direct_sum(heisenberg(1), abelian(1)), 3),
        rational_basis(direct_sum(heisenberg(1), abelian(3)), 4),
        rational_basis(direct_sum(heisenberg(2), abelian(1)), 5),
        rational_basis(with_abelian_part(seeded_gh(3, 1, 0), 2), 6),
        rational_basis(abelian(1), 7),
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
    # the exterior center of abelian(1) is all of it: with one generator there
    # is no pair, so x1 ∧ L = 0
    for a in (abelian(1), rational_basis(abelian(1), 8)):
        assert exterior_center(presentation_from_class2(a)) == Subspace.full(1)


# --- the ker β certificate against the canonical basis it replaced ---------------

def _ker_beta_inputs():
    """The default grid, seeded GH algebras at d = 3..12, t > 0 sums,
    rational_basis inputs, A(0), A(3) and H(1)⊕A(1)."""
    inputs = [c.build() for c in grid_cases((3, 4, 5, 6), (1, 2, 3), (0, 1, 2), 5)]
    inputs += [seeded_gh(d, k, s) for d in range(3, 13) for k in range(4) if k < d * (d - 1) // 2
               for s in range(3 if d <= 8 else 1)]
    inputs += [heisenberg(1), abelian(0), abelian(3), direct_sum(heisenberg(1), abelian(1)),
               direct_sum(heisenberg(2), abelian(2)), with_abelian_part(seeded_gh(5, 2, 1), 2)]
    dense = [seeded_gh(4, 1, 0), seeded_gh(5, 3, 1), random_class2(5, 8), direct_sum(heisenberg(1), abelian(1))]
    return inputs + [rational_basis(a, s) for s, a in enumerate(dense)]


def _k_mutants(k):
    """K without its first row, with one more independent row, and with the last
    entry of its first row of two or more entries changed (an entry off the
    pivots, so the rows stay reduced): all unequal to K."""
    n, rows = k.ambient_dim, k.integer_rows()
    if rows:
        yield Subspace.from_vectors(n, rows[1:])
    for i, r in enumerate(rows):
        if len(r) > 1:
            changed = dict(r)
            changed[max(r)] += 1
            yield Subspace.from_vectors(n, rows[:i] + [changed] + rows[i + 1:])
            break
    free = k.complement_coords()
    if free:
        yield Subspace.from_vectors(n, rows + [{free[-1]: 1}])


def _row_mutants(rows, ambient):
    """Forward rows without their first row, with the last entry of the last row of
    two or more entries doubled (``_k_mutants`` changes the first), and with a
    unit row at a column no row leads: each keeps distinct leads, so it stays
    independent."""
    if rows:
        yield rows[1:]
    for i in reversed(range(len(rows))):
        if len(rows[i]) > 1:
            changed = dict(rows[i])
            changed[max(changed)] *= 2
            yield rows[:i] + [changed] + rows[i + 1:]
            break
    free = sorted(set(range(ambient)).difference(min(r) for r in rows))
    if free:
        yield rows + [{free[-1]: 1}]


def _sheared(rows):
    """rows[i] + rows[i+1] for each row but the last, then the last: another basis of their span."""
    out = []
    for u, v in zip(rows, rows[1:]):
        w = dict(u)
        vec_axpy(w, 1, v)
        out.append(w)
    return out + rows[-1:]


def test_ker_beta_certificate_matches_the_canonical_basis():
    # (dim, verdict) as ker_beta's basis gives them, on K's forward rows, on
    # K's mutants and on a presentation whose β images are all zero; on the
    # forward rows and their mutants, whichever basis of the span it is
    # handed: the rows, their canonical rows or a shear of them
    inputs = _ker_beta_inputs()
    verdicts = {}
    for a in inputs:
        b, rel2, _ = rebase_class2(a)
        kd = psi2_image(b, rel2)
        k = kd.image
        p = presentation_from_class2(b, rel2)
        kb = ker_beta(p)
        assert kb == k and hopf.ker_beta_agrees(p, kd.rows) == (kb.dim, True)
        for m in _k_mutants(k):
            assert m != k
            got = hopf.ker_beta_agrees(p, m.integer_rows())
            assert got == (kb.dim, kb == m)
            verdicts[m.dim == kb.dim] = verdicts.get(m.dim == kb.dim, 0) + 1
        for rows in (kd.rows, *_row_mutants(kd.rows, k.ambient_dim)):
            span = Subspace.from_vectors(k.ambient_dim, rows)
            assert span.dim == len(rows)
            for basis in (rows, span.integer_rows(), _sheared(rows)):
                assert hopf.ker_beta_agrees(p, basis) == (kb.dim, kb == span)
        zero = presentation_from_class2(b, rel2)
        zero._beta = [{} for _ in hopf._beta_images(zero)]
        kz = ker_beta(zero)
        assert kz == Subspace.full(len(zero._beta))
        assert hopf.ker_beta_agrees(zero, kd.rows) == (kz.dim, kz == k)
    assert len(inputs) >= 300
    # ker β is K on every input, and some mutants have K's dimension, so both
    # halves of the certificate decide some verdict
    assert verdicts[True] >= 100 and verdicts[False] >= 100


def test_exterior_center_matches_the_kernel_and_the_per_call_reference(monkeypatch):
    # exterior_center is relations among its vectors; the answer is the same
    # with the column-singleton pre-pass switched off (no row taken) and is the
    # per-call reference's, on capable inputs such as H(1)⊕A(1) and on the
    # non-capable H(2), H(3), H(2)⊕A(1) and A(1)
    ec_dims = {"H(2)": (heisenberg(2), 1), "H(3)": (heisenberg(3), 1),
               "H(2)+A(1)": (direct_sum(heisenberg(2), abelian(1)), 1), "A(1)": (abelian(1), 1),
               "H(1)+A(1)": (direct_sum(heisenberg(1), abelian(1)), 0), "H(1)": (heisenberg(1), 0),
               "A(0)": (abelian(0), 0), "A(3)": (abelian(3), 0)}
    inputs = [c.build() for c in grid_cases((3, 4, 5, 6), (1, 2, 3), (0, 1, 2), 5)]
    inputs += [a for a, _ in ec_dims.values()]
    dense = [heisenberg(2), abelian(1), direct_sum(heisenberg(1), abelian(1)), seeded_gh(4, 1, 0),
             with_abelian_part(seeded_gh(3, 1, 0), 2)]
    inputs += [rational_basis(a, s) for s, a in enumerate(dense)]
    paths = {True: 0, False: 0}
    for a in inputs:
        p = presentation_from_class2(a)
        got = exterior_center(p)
        paths[got.dim == 0] += 1
        with monkeypatch.context() as m:  # the pre-pass switched off: no row taken
            m.setattr(exactla, "_singletons", lambda rows: ([], list(range(len(rows)))))
            assert got == exterior_center(p) == _reference_exterior_center(p)
    for name, (a, dim) in ec_dims.items():
        assert exterior_center(presentation_from_class2(a)).dim == dim, name
    assert paths[True] >= 100 and paths[False] >= 6


def test_column_singleton_prepass_matches_the_kernel_on_the_engine_inputs(monkeypatch):
    # every list the pre-pass reads in an analysis with the oracle and in a
    # cover's verification, recorded as its callers hold it: the Jacobi cycles
    # (K's basis) and the inputs of relations (the exterior-center vectors, the
    # center's ad-vectors and rel2 in the rebase), each checked against the
    # kernel alone.  A cover's center is a tall input of relations: it has more
    # than twice as many coordinates as vectors, so its coordinate rows take
    # the one-pass RREF.
    inputs = [c.build() for c in grid_cases((3, 4, 5, 6), (1, 2, 3), (0, 1, 2), 5)]
    inputs += [seeded_gh(d, k, s) for d in range(3, 13) for k in range(4) if k < d * (d - 1) // 2
               for s in range(2 if d <= 8 else 1)]
    inputs += [heisenberg(2), abelian(1), direct_sum(heisenberg(1), abelian(1))]
    dense = [seeded_gh(4, 1, 0), seeded_gh(5, 2, 2), random_class2(4, 3), heisenberg(2),
             with_abelian_part(seeded_gh(3, 1, 0), 2)]
    inputs += [rational_basis(a, s) for s, a in enumerate(dense)]
    covered = [seeded_gh(d, 1, 0) for d in range(4, 8)]
    covered += [rational_basis(seeded_gh(4, 1, 0), 0), rational_basis(seeded_gh(5, 2, 2), 1)]
    seen = []

    def recording(rows, real=exactla._singletons):
        seen.append(rows)
        return real(rows)

    monkeypatch.setattr(exactla, "_singletons", recording)
    for a in inputs:
        analyze(a, with_oracle=True)
    analyses = len(seen)
    for a in covered:
        cover = cover_construct(presentation_from_class2(a))
        assert verify_cover(a, cover.algebra, cover.central_ideal).ok
    monkeypatch.undo()
    # each analysis reads K's basis, the exterior center, rel2 and the center
    assert analyses >= 4 * len(inputs) and len(inputs) >= 250
    tall = sum(len(set().union(*rows)) > 2 * len(rows) >= 50 for rows in seen[analyses:])
    assert tall >= len(covered)
    partial = 0
    for rows in seen:
        taken, rest = assert_prepass_agrees(rows)
        partial += bool(taken) and any(rows[i] for i in rest)
    assert partial  # some lists leave rows for the kernel beside the taken ones


def _reference_lifts(p):
    """The lifts as presentation_from_class2 solved for them before they were read
    off the rebased table: all from one RREF of [φ | I_r], x_s = Σ_i E[i][s] e_(pivot i)
    with the free coordinates 0."""
    t, h = p.target, p.hall
    g2, r = h.grade2_dim, len(p.lifts)
    phi_rows = [{} for _ in range(r)]
    for w, (i, j) in enumerate(h.pairs):
        for k, x in t.pair(i, j).items():
            phi_rows[k - h.d][w] = x
    lifts = [{} for _ in range(r)]
    for row in Subspace.from_vectors(g2 + r, [{**row, g2 + s: ONE} for s, row in enumerate(phi_rows)]).vectors():
        piv = min(row)
        assert piv < g2, "derived basis vector is not in the bracket image"
        for c, x in row.items():
            if c >= g2:
                lifts[c - g2][piv] = x
    return lifts


def _typed(v):
    """v's items by key, each with its value's type: 2 and Fraction(2, 1) are equal values."""
    return sorted((c, type(x), x) for c, x in v.items())


def _reference_image(p, w, g):
    """[w, x_g] mod [R,F] as it was built per vector: the rewrite, then quotient_coords."""
    return p.rel_bracket_span.quotient_coords(_reference_wedge_gen_bracket(p.hall, w, g))


def _grade3_inputs():
    """Grid cases with t > 0, harness-style sums and rational_basis inputs."""
    inputs = [c.build() for c in grid_cases((3, 4, 5), (1, 2, 3), (0, 1), 1)]
    inputs += [heisenberg(m) for m in (1, 2)] + [abelian(2), direct_sum(heisenberg(1), abelian(1))]
    dense = [seeded_gh(4, 1, 0), seeded_gh(4, 3, 1), random_class2(4, 3), random_class2(5, 8),
             with_abelian_part(seeded_gh(3, 1, 2), 1), with_abelian_part(canonical_gh(4, 2), 1),
             heisenberg(2), direct_sum(heisenberg(1), abelian(1)), seeded_gh(5, 1, 7), seeded_gh(6, 2, 0)]
    return inputs + [rational_basis(a, s) for s, a in enumerate(dense)]


def _ints(v):
    """v's entries are all ints."""
    return all(type(x) is int for x in v.values())


def test_beta_images_match_the_solved_lifts_reference():
    # a unit lift and the solved one differ by an element of rel2, and
    # [rel2, x_g] lies in [R,F], so the β images mod [R,F] agree; with the unit
    # lifts each β row is D times the per-vector build's image, in ints
    inputs = _grade3_inputs()
    assert len(inputs) >= 40
    differ = fractions = 0
    for a in inputs:
        p = presentation_from_class2(a)
        den = p.rel_bracket_span.unit_images()[0]
        lifts = _reference_lifts(p)
        differ += lifts != p.lifts
        got = hopf._beta_images(p)
        assert all(_ints(v) for v in got)
        for y in (lifts, p.lifts):
            want = [_reference_image(p, w, g) for w in y for g in range(p.hall.d)]
            assert got == [{q: den * x for q, x in v.items()} for v in want]
        fractions += any(type(x) is Fraction for v in want for x in v.values())
    assert differ  # the unit lifts are not the solved ones on every input
    assert fractions  # and some β images hold non-integral entries


def test_cover_table_matches_the_per_vector_quotient_build():
    # every grade-3 entry of cover_construct's table, and the D-scaled image it
    # is read from, against the rewrite-then-quotient_coords build of each (w, g)
    for a in _grade3_inputs():
        p = presentation_from_class2(a)
        h = p.hall
        d, g2 = h.d, h.grade2_dim
        table = cover_construct(p).algebra.bracket
        den, images = p.rel_bracket_span.unit_images()
        for g in range(d):
            for w in range(g2):
                want = _reference_image(p, {w: 1}, g)
                got = hopf._bracket_image(images, h.rule[w][g])
                assert _ints(got) and got == {q: den * x for q, x in want.items()}, (w, g)
                assert _typed(table.get((g, d + w), {})) == _typed({d + g2 + q: -x for q, x in want.items()})


def test_integer_beta_rows_match_the_fraction_reference():
    # on the grade-3 inputs, the default grid, seeded GH algebras at d <= 12
    # with defect <= 3 and rational_basis inputs: each triple image and β row
    # is D times the Fraction build's, in ints, the cover's table is the one
    # written from the Fraction images, and the summed certificate gives the
    # Hall-rule-and-reduce verdict on K's rows and on every K mutant
    inputs = _grade3_inputs() + _ker_beta_inputs()
    dens, summed = [], 0
    for a in inputs:
        b, rel2, _ = rebase_class2(a)
        kd = psi2_image(b, rel2)
        p = presentation_from_class2(b, rel2)
        den, images = p.rel_bracket_span.unit_images()
        dens.append(den)
        ref = reference_triple_images(p)
        assert all(_ints(u) for u in images)
        assert images == [{q: x * (den // e) for q, x in u.items()} for e, u in ref]
        beta = hopf._beta_images(p)
        assert all(_ints(v) for v in beta)
        assert beta == [{q: den * x for q, x in v.items()} for v in reference_beta_images(p)]
        h, d = p.hall, p.hall.d
        off = d + h.grade2_dim
        want = {ij: {d + w: 1} for w, ij in enumerate(h.pairs)}
        for g in range(d):
            for w in range(h.grade2_dim):
                img = reference_bracket_image(ref, h.rule[w][g])
                if img:
                    want[(g, d + w)] = {off + q: -x for q, x in img.items()}
        table = cover_construct(p).algebra.bracket
        assert {k: _typed(v) for k, v in table.items()} == {k: _typed(v) for k, v in want.items()}
        for basis in (kd.rows, *(m.integer_rows() for m in _k_mutants(kd.image))):
            got = hopf.ker_beta_agrees(p, basis)
            assert got == reference_ker_beta_agrees(p, basis)
            summed += got == (len(basis), False)  # decided by the sum, not the dimension
    assert len(inputs) >= 340 and max(dens) > 1 and dens.count(1) >= 100
    assert summed >= 100


def test_hall_rule_table_matches_the_reference_rewrite():
    for d in range(1, 9):
        h = hall_basis(d)
        assert len(h.rule) == h.grade2_dim and all(len(row) == d for row in h.rule)
        one_term = []
        for w in range(h.grade2_dim):
            for g in range(d):
                terms = h.rule[w][g]
                assert list(terms) == list(_reference_wedge_gen_bracket(h, {w: ONE}, g).items()), (d, w, g)
                assert all(type(sign) is int for _, sign in terms)
                if len(terms) == 1:
                    one_term.append(terms[0][0])
        # each triple (i, j, k), k >= i, is the one term of exactly one entry
        assert sorted(one_term) == list(range(h.grade3_dim))


# --- the cover's table against the free-bracket build it replaced -----------------------

def _reference_basis_bracket(h, a, b):
    """[e_a, e_b] of F_{d,3} in Hall coordinates (generators, pairs, triples), as
    HallBasis.basis_bracket computed it."""
    ga, gb = grade(h, a), grade(h, b)
    if ga + gb > 3:
        return {}
    if ga == 1 and gb == 1:
        if a == b:
            return {}
        if a < b:
            return {h.d + h.pair_index[(a, b)]: ONE}
        return {h.d + h.pair_index[(b, a)]: -ONE}
    if ga == 2:
        w, g, sign = a - h.d, b, ONE
    else:  # ga == 1 and gb == 2
        w, g, sign = b - h.d, a, -ONE
    off = h.d + h.grade2_dim
    return {off + m: sign * x for m, x in wedge_gen_bracket(h, {w: ONE}, g).items()}


def _reference_free_bracket(h, u, v):
    out = {}
    for a, x in u.items():
        for b, y in v.items():
            vec_axpy(out, x * y, _reference_basis_bracket(h, a, b))
    return out


def _reference_cover_construct(p):
    """cover_construct as it was: the free bracket of every pair of cover basis
    vectors, projected mod [R,F]."""
    h = p.hall
    d = h.d
    rf = p.rel_bracket_span
    comp3 = rf.complement_coords()
    g2 = h.grade2_dim
    low = d + g2
    dim = low + len(comp3)

    def project(w):
        out = {c: x for c, x in w.items() if c < low}
        w3 = {c - low: x for c, x in w.items() if c >= low}
        if w3:
            for q, x in rf.quotient_coords(w3).items():
                out[low + q] = x
        return out

    table = {}
    for i, j in itertools.combinations(range(dim), 2):
        ei = i if i < low else low + comp3[i - low]
        ej = j if j < low else low + comp3[j - low]
        w = _reference_free_bracket(h, {ei: ONE}, {ej: ONE})
        if w:
            img = project(w)
            if img:
                table[(i, j)] = img
    gen_labels = list(p.target.labels[:d])
    pair_labels = [f"[{gen_labels[i]},{gen_labels[j]}]" for i, j in h.pairs]
    triple_labels = [
        f"[[{gen_labels[i]},{gen_labels[j]}],{gen_labels[k]}]"
        for (i, j, k) in (h.triples[m] for m in comp3)
    ]
    algebra = LieAlgebra(dim, gen_labels + pair_labels + triple_labels, table)
    b_gens = [{d + w: x for w, x in v.items()} for v in p.rel2.vectors()]
    b_gens += [{low + q: ONE} for q in range(len(comp3))]
    return algebra, Subspace.from_vectors(dim, b_gens)


def test_cover_construct_matches_free_bracket_reference():
    inputs = [c.build() for c in grid_cases((3, 4, 5), (1, 2, 3), (0, 1), 1)]
    inputs += [abelian(n) for n in range(4)] + [heisenberg(m) for m in (1, 2, 3)]
    inputs += [direct_sum(heisenberg(1), abelian(t)) for t in range(3)]
    # the harness's algebras: random_class2 and seeded_gh cores with an A(t) summand
    inputs += [with_abelian_part(random_class2(d, s), t) for d, s, t in ((3, 0, 0), (3, 5, 2), (4, 1, 1), (4, 7, 0))]
    inputs += [with_abelian_part(seeded_gh(4, 1 + s % 3, s), s % 2) for s in range(3)]
    dense = inputs[-7:] + [seeded_gh(5, 1, 7), seeded_gh(4, 3, 2), heisenberg(2)]
    inputs += [rational_basis(a, s) for s, a in enumerate(dense)]
    for a in inputs:
        p = presentation_from_class2(a)
        cov = cover_construct(p)
        ref_algebra, ref_b = _reference_cover_construct(p)
        assert cov.algebra == ref_algebra
        assert cov.algebra.labels == ref_algebra.labels
        assert cov.central_ideal == ref_b


# --- verify_cover against the second presentation it no longer builds ---------------------

def _reference_iso_onto_target(p, canonical):
    """Generator-fixing map canonical -> target is a bracket isomorphism."""
    t = p.target
    d = p.hall.d
    images = [{i: ONE} for i in range(d)]
    for c in p.rel2.complement_coords():
        i, j = p.hall.pairs[c]
        images.append(t.pair(i, j))
    if rank(Matrix(t.dim, images)) != t.dim:
        return False
    for i, j in itertools.combinations(range(canonical.dim), 2):
        lhs = bracket_vectors(t, images[i], images[j])
        rhs = {}
        for k, x in canonical.pair(i, j).items():
            vec_axpy(rhs, x, images[k])
        if lhs != rhs:
            return False
    return True


def _reference_verify_cover(a, cover, b):
    """verify_cover as it was: a second free presentation, the quotient compared
    with class2_from_relations(d, rel2) through a generator-fixing isomorphism
    check, and dim rel2 as the defect bound."""
    a, rel2, _ = rebase_class2(a)
    p = presentation_from_class2(a, rel2)
    der = derived_subalgebra(cover)
    z = center(cover)
    series = lower_central_series(cover, der)
    cls = sum(1 for t in series if t.dim) if series[-1].dim == 0 else -1
    cube = series[2] if len(series) > 2 else Subspace.zero(cover.dim)
    k = psi2_image(a, rel2)
    m_dim = dimensions(k)["m_L"]
    quo = quotient(cover, b)
    canonical = class2_from_relations(p.hall.d, p.rel2)
    s = b.dim - cube.dim
    return hopf.CoverReport(
        cover_dim=cover.dim,
        expected_dim=a.dim + m_dim,
        nilpotency_class=cls,
        expected_class=3 if k.r * k.n > k.rank else min(a.dim, 2),
        z_in_derived=all(der.contains_vec(u) for u in z.vectors()),
        b_central=all(z.contains_vec(u) for u in b.vectors()),
        b_in_derived=all(der.contains_vec(u) for u in b.vectors()),
        b_dim=b.dim,
        multiplier=m_dim,
        quotient_matches=quo.bracket == canonical.bracket and _reference_iso_onto_target(p, canonical),
        cube_dim=cube.dim,
        s=s,
        defect=p.rel2.dim,
        branch_ok=all(b.contains_vec(u) for u in cube.vectors()) and 0 <= s <= p.rel2.dim,
        witness_ok=hopf._extension_witness_agrees(p, series) if p.hall.d == 3 else None,
    )


def test_verify_cover_matches_the_second_presentation_reference():
    inputs = [c.build() for c in grid_cases((3, 4, 5), (1, 2, 3), (0,), 1)]
    inputs += [abelian(n) for n in range(5)] + [heisenberg(m) for m in (1, 2, 3)]
    inputs += [direct_sum(heisenberg(1), abelian(t)) for t in (1, 2)]
    inputs += [with_abelian_part(canonical_gh(d, k), 1) for d, k in ((3, 1), (4, 2), (5, 3))]
    inputs += [random_class2(d, s) for d, s in ((3, 0), (4, 1), (4, 7))]
    dense = [seeded_gh(4, 1, 0), seeded_gh(4, 3, 1), canonical_gh(4, 3, "deficient"),
             with_abelian_part(seeded_gh(3, 1, 2), 1), random_class2(4, 3), heisenberg(2),
             abelian(3), direct_sum(heisenberg(1), abelian(1))]
    inputs += [rational_basis(a, s) for s, a in enumerate(dense)]
    assert len(inputs) >= 40
    checked = mismatched = 0
    for a in inputs:
        p = presentation_from_class2(a)
        cover, b = _cover_pair(p)
        # the input itself, off the basis contract or not, and the rebased target
        for x in (a, p.target):
            got = dataclasses.asdict(verify_cover(x, cover, b))
            assert got == dataclasses.asdict(_reference_verify_cover(x, cover, b))
            assert got["quotient_matches"]
            checked += 1
    # a cover of one algebra checked against another of the same dimension
    pairs = [(heisenberg(2), direct_sum(heisenberg(1), abelian(2))),
             (canonical_gh(4, 1), seeded_gh(4, 1, 0)),
             (canonical_gh(4, 3, "generic"), canonical_gh(4, 3, "deficient")),
             (abelian(4), direct_sum(heisenberg(1), abelian(1))),
             (canonical_gh(3, 1), rational_basis(seeded_gh(3, 1, 1), 5))]
    for x, y in pairs:
        assert x.dim == y.dim
        for cover_of, a in ((x, y), (y, x)):
            cover, b = _cover_pair(presentation_from_class2(cover_of))
            got = dataclasses.asdict(verify_cover(a, cover, b))
            assert got == dataclasses.asdict(_reference_verify_cover(a, cover, b))
            mismatched += not got["quotient_matches"]
    assert checked >= 80 and mismatched >= 2
    # the reference compared brackets only, so it took the quotient A(3) for A(2)
    cover, b = _cover_pair(presentation_from_class2(abelian(3)))
    assert _reference_verify_cover(abelian(2), cover, b).quotient_matches
    assert not verify_cover(abelian(2), cover, b).quotient_matches


# --- verify_cover on the cover scaled to integers against the check on its own table -----

def _report(check, a, cover, b):
    """check's report as a dict with its ok verdict, or the ValueError class it raised."""
    try:
        rep = check(a, cover, b)
    except ValueError as e:
        return type(e)
    return {**dataclasses.asdict(rep), "ok": rep.ok}


def _assert_same_report(a, cover, b):
    got = _report(verify_cover, a, cover, b)
    assert got == _report(reference_verify_cover, a, cover, b)
    return got


def _with_table(cover, table):
    return LieAlgebra(cover.dim, cover.labels, table)


def test_verify_cover_on_the_scaled_table_matches_the_fraction_reference():
    fractional = [seeded_gh(d, k, 0) for d in (3, 4, 5, 6) for k in (1, 2, 3)[:d - 1]]
    fractional += [rational_basis(a, s) for s, a in enumerate(
        [seeded_gh(4, 1, 0), seeded_gh(3, 1, 1), random_class2(4, 3), heisenberg(2), canonical_gh(4, 3, "deficient")])]
    integral = [canonical_gh(d, k) for d, k in ((3, 1), (4, 2), (5, 3))] + [canonical_gh(4, 3, "deficient")]
    integral += [heisenberg(1), heisenberg(2), abelian(3), direct_sum(heisenberg(1), abelian(1))]
    scales = []
    for a in fractional + integral:
        p = presentation_from_class2(a)
        cover, b = _cover_pair(p)
        c = integral_table(cover.bracket)[0]
        scales.append(c)
        for x in (a, p.target):
            assert _assert_same_report(x, cover, b)["ok"]
        if c == 1:
            continue
        d, table = p.hall.d, cover.bracket
        # one Fraction entry moved by 1/7
        key, k = next((key, k) for key, w in sorted(table.items()) for k, x in w.items() if type(x) is F)
        moved = {ij: dict(w) for ij, w in table.items()}
        moved[key][k] += F(1, 7)
        _assert_same_report(a, _with_table(cover, moved), b)
        # twice the table: the same subspaces, but cover/B is twice the target
        doubled = _with_table(cover, {ij: {i: 2 * x for i, x in w.items()} for ij, w in table.items()})
        got = _assert_same_report(a, doubled, b)
        assert not got["quotient_matches"] and not got["ok"]
        # B plus a wedge pair outside rel2: an ideal in L*², not central
        wide = Subspace.from_vectors(cover.dim, b.integer_rows() + [{d + p.rel2.complement_coords()[0]: 1}])
        got = _assert_same_report(a, cover, wide)
        assert got["b_in_derived"] and not got["b_central"]
        # L*² plus a generator: an ideal outside L*²
        outside = Subspace.from_vectors(cover.dim, [{0: 1}] + [{i: 1} for i in range(d, cover.dim)])
        got = _assert_same_report(a, cover, outside)
        assert not got["b_in_derived"] and not got["b_central"]
    assert sum(c > 1 for c in scales) >= 12 and scales.count(1) >= 6
    # a cover of one algebra checked against another of the same dimension
    pairs = [(heisenberg(2), direct_sum(heisenberg(1), abelian(2))),
             (canonical_gh(4, 1), seeded_gh(4, 1, 0)),
             (seeded_gh(5, 3, 0), rational_basis(seeded_gh(5, 3, 1), 3)),
             (canonical_gh(3, 1), rational_basis(seeded_gh(3, 1, 1), 5))]
    mismatched = 0
    for x, y in pairs:
        assert x.dim == y.dim
        for cover_of, a in ((x, y), (y, x)):
            got = _assert_same_report(a, *_cover_pair(presentation_from_class2(cover_of)))
            mismatched += not got["quotient_matches"]
    assert mismatched >= 6


def test_verify_cover_eliminates_integer_rows_only(monkeypatch):
    # every row the kernel's forward pass and column-singleton pre-pass receive
    # while the cover is checked, K's Jacobi cycles included (none of these
    # inputs has d = 3, so the witness is not built)
    seen = []
    forward, singletons = exactla._forward, exactla._singletons

    def forward_recorded(rows):
        rows = list(rows)
        seen.extend(rows)
        return forward(rows)

    def singletons_recorded(rows):
        seen.extend(rows)
        return singletons(rows)

    monkeypatch.setattr(exactla, "_forward", forward_recorded)
    monkeypatch.setattr(exactla, "_singletons", singletons_recorded)
    inputs = [seeded_gh(4, 1, 0), seeded_gh(5, 3, 0), seeded_gh(10, 3, 0), rational_basis(seeded_gh(4, 2, 0), 1)]
    for a in inputs:
        cover, b = _cover_pair(presentation_from_class2(a))
        assert integral_table(cover.bracket)[0] > 1
        seen.clear()
        assert verify_cover(a, cover, b).ok
        assert seen and all(type(x) is int for r in seen for x in r.values())


# --- the one normal form against the read-off and φ kernel it replaced -------------------

def _reference_rebase_read_off(a):
    """rebase_class2 as it was: the generator-pair matrix at L²'s pivots eliminated
    with its pair columns reversed and the columns of that RREF read off as the
    rebased constants; returns the table, L² as its trailing units, and Z(L)."""
    der = derived_subalgebra(a)
    z = center(a, der)
    if not all(z.contains_vec(v) for v in der.vectors()):
        raise ClassTwoRequired("input must be nilpotent of class at most 2")
    n = a.dim - der.dim
    gens = der.complement_coords()
    pairs = wedge_pairs(n)
    last = len(pairs) - 1
    rows = {p: {} for p in der.pivots}
    for w, (i, j) in enumerate(pairs):
        for p, x in a.pair(gens[i], gens[j]).items():
            if p in rows:
                rows[p][last - w] = x
    cols = [{} for _ in pairs]
    for s, row in enumerate(reversed(Subspace.from_vectors(len(pairs), rows.values()).vectors())):
        for c, x in row.items():
            cols[last - c][n + s] = x
    labels = [a.labels[g] for g in gens] + [a.labels[p] for p in der.pivots]
    b = LieAlgebra(a.dim, labels, {pairs[w]: v for w, v in enumerate(cols) if v})
    return b, Subspace.from_vectors(a.dim, [{c: ONE} for c in range(n, a.dim)]), z


def _reference_phi_presentation(a, der):
    """presentation_from_class2 as it was, on a rebased table and its L²: φ rebuilt
    from the table, S its kernel, and lift s the unit at the last entry of φ's row s."""
    r = der.dim
    d = a.dim - r
    h = hall_basis(d)
    phi_rows = [{} for _ in range(r)]
    for w, (i, j) in enumerate(h.pairs):
        for k, x in a.pair(i, j).items():
            phi_rows[k - d][w] = x
    rel2 = relations(columns(Matrix(h.grade2_dim, phi_rows)))
    gens = [w3 for v in rel2.vectors() for k in range(d) if (w3 := wedge_gen_bracket(h, v, k))]
    rf = Subspace.from_vectors(h.grade3_dim, gens)
    return rel2, [{max(row): ONE} for row in phi_rows], rf


def _normal_form_inputs():
    # the harness's algebras: random_class2 and seeded_gh cores with an A(t) summand
    harness = [with_abelian_part(random_class2(d, s), t) for d, s, t in ((3, 0, 0), (3, 5, 2), (4, 1, 1), (4, 7, 0))]
    harness += [with_abelian_part(seeded_gh(d, 1 + s % 2, s), t) for d, s, t in ((3, 2, 1), (4, 3, 0), (4, 4, 1))]
    inputs = harness + [rational_basis(a, s) for s, a in enumerate(harness)]
    inputs += [c.build() for c in grid_cases((3, 4, 5), (1, 2, 3), (0, 2), 1)]
    inputs += [with_abelian_part(canonical_gh(d, k), t) for d, k, t in ((3, 1, 1), (4, 2, 2), (5, 3, 1))]
    inputs += [heisenberg(m) for m in (1, 2, 3)] + [abelian(n) for n in range(5)]
    inputs += [direct_sum(heisenberg(1), abelian(1)), rational_basis(direct_sum(heisenberg(1), abelian(1)), 9)]
    return inputs


def test_normal_form_matches_the_read_off_and_phi_kernel_references():
    inputs = _normal_form_inputs()
    assert len(inputs) >= 40
    for a in inputs:
        b0, der0, z0 = _reference_rebase_read_off(a)
        rel0, lifts0, rf0 = _reference_phi_presentation(b0, der0)
        b, rel2, z = rebase_class2(a)
        assert (b, b.labels, rel2, z) == (b0, b0.labels, rel0, z0)
        p = presentation_from_class2(a)
        assert (p.target, p.target.labels, p.rel2, p.lifts, p.rel_bracket_span) == (b0, b0.labels, rel0, lifts0, rf0)
        assert psi2_image(b, rel2) == psi2_image(a)
    # class 3 and non-nilpotent tables raise on both paths
    sl2 = LieAlgebra(3, "efh", {(0, 1): {2: ONE}, (0, 2): {0: F(-2)}, (1, 2): {1: F(2)}})
    rejected = [cover_construct(presentation_from_class2(a)).algebra for a in (heisenberg(1), canonical_gh(3, 1))]
    rejected += [LieAlgebra(2, "xy", {(0, 1): {1: ONE}}), direct_sum(sl2, heisenberg(1))]
    for a in rejected + [rational_basis(a, s) for s, a in enumerate(rejected)]:
        for fn in (_reference_rebase_read_off, rebase_class2, presentation_from_class2, psi2_image):
            with pytest.raises(ClassTwoRequired):
                fn(a)


# --- the d = 3 witness against the closure and restriction it replaced --------------------

def _reference_subalgebra_closure(a, seed_vectors):
    """Smallest subalgebra containing the given vectors, as a subspace."""
    sub = Subspace.from_vectors(a.dim, list(seed_vectors))
    while True:
        gens = sub.vectors()
        new = [bracket_vectors(a, u, v) for u, v in itertools.combinations(gens, 2)]
        grown = Subspace.from_vectors(a.dim, gens + new)
        if grown.dim == sub.dim:
            return sub
        sub = grown


def coords(sub, v):
    """Coefficients of v in sub's RREF basis rows, or None if v is outside."""
    if not sub.contains_vec(v):
        return None
    # RREF: the pivot coordinates of v are exactly its basis coefficients.
    return {t: v[p] for t, p in enumerate(sub.pivots) if p in v}


def _reference_restrict(a, sub):
    """The algebra structure induced on a bracket-closed subspace."""
    basis = sub.vectors()
    table = {}
    for s, t in itertools.combinations(range(len(basis)), 2):
        c = coords(sub, bracket_vectors(a, basis[s], basis[t]))
        if c is None:
            raise ValueError("subspace is not closed under the bracket")
        if c:
            table[(s, t)] = c
    return LieAlgebra(len(basis), [f"u{k+1}" for k in range(len(basis))], table)


def _reference_witness_agrees(p, cover, series):
    """_extension_witness_agrees as it was: the generated subalgebra by closure,
    restricted to its own basis, and that algebra's lower central series."""
    lstar = extension_witness(p)
    sub = _reference_restrict(lstar, _reference_subalgebra_closure(lstar, [{i: ONE} for i in range(p.hall.d)]))
    if sub.dim != cover.dim:
        return False
    return [s.dim for s in lower_central_series(sub)] == [s.dim for s in series]


def _d3_inputs():
    d3 = [canonical_gh(3, 1), canonical_gh(3, 2), class2_from_relations(3, Subspace.zero(3)), abelian(3),
          direct_sum(heisenberg(1), abelian(1))]
    d3 += [seeded_gh(3, 1 + s % 2, s) for s in range(3)] + [random_class2(3, s) for s in range(4)]
    return d3 + [rational_basis(a, s) for s, a in enumerate(d3[:6])]


def test_extension_witness_matches_the_quotient_coords_reference():
    # the witness reads ker β's unit images divided once by their D; its table is
    # the one read off quotient_coords of each unit vector, key order and value
    # types too, on the d = 3 inputs and on the grid's d = 3 and d = 4 cases
    inputs = _d3_inputs() + [c.build() for c in grid_cases((3, 4), (1, 2, 3), (0,), 5)]
    dens = []
    for a in inputs:
        p = presentation_from_class2(a)
        got, want = extension_witness(p), reference_extension_witness(p)
        assert (got.dim, got.labels) == (want.dim, want.labels)
        assert ([(k, [(c, type(x), x) for c, x in v.items()]) for k, v in got.bracket.items()]
                == [(k, [(c, type(x), x) for c, x in v.items()]) for k, v in want.bracket.items()])
        dens.append(ker_beta(p).unit_images()[0])
    assert dens.count(1) >= 5 and max(dens) > 1


def test_witness_matches_the_closure_and_restrict_reference():
    presentations = [presentation_from_class2(a) for a in _d3_inputs()]
    others = [canonical_gh(4, 2), heisenberg(2), abelian(2), direct_sum(heisenberg(1), abelian(2))]
    covers = [cover_construct(p).algebra for p in presentations]
    covers += [cover_construct(presentation_from_class2(a)).algebra for a in others]
    verdicts = []
    for p in presentations:
        assert p.hall.d == 3
        for cover in covers:
            series = lower_central_series(cover)
            got = hopf._extension_witness_agrees(p, series)
            assert got == _reference_witness_agrees(p, cover, series)
            verdicts.append(got)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 100
