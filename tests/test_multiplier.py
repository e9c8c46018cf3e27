import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from ghlie import exactla, hopf, liealg, multiplier, report
from ghlie.exactla import Matrix, Subspace, vec_axpy
from ghlie.exactla import rank as mat_rank
from ghlie.fixtures import canonical_gh, grid_cases, seeded_gh, with_abelian_part
from ghlie.liealg import (
    ClassTwoRequired,
    GhSpec,
    abelian,
    change_of_basis,
    class2_from_relations,
    derived_subalgebra,
    direct_sum,
    gh_construct,
    heisenberg,
    rebase_class2,
)
from ghlie.multiplier import dimensions, psi2_image, square_dim
from ghlie.report import (
    Analysis,
    NotGeneralizedHeisenberg,
    analyze,
    capability_by_quotients,
    classify_by_multiplier,
)

from _reference import jacobi_cycle_generators, random_class2

F = Fraction
ONE = F(1)


def gh(d, rank, seed=0):
    return gh_construct(GhSpec(d=d, rank=rank, seed=seed))


def dims(a):
    return dimensions(psi2_image(a))


def scrambled(a, seed):
    """a in a random integer basis, off the generators-then-L² contract."""
    rng = random.Random(seed)
    while True:
        p = Matrix.from_dense([[rng.randint(-2, 2) for _ in range(a.dim)] for _ in range(a.dim)])
        if mat_rank(p) == a.dim:
            return change_of_basis(a, p)


# --- psi2 ----------------------------------------------------------------------

def test_psi2_abelian_is_zero():
    data = psi2_image(abelian(4))
    assert data.rank == 0
    assert (data.n, data.r) == (4, 0)


def test_psi2_full_rank_families():
    assert psi2_image(canonical_gh(4, 1)).rank == 4
    assert psi2_image(canonical_gh(4, 2)).rank == 4
    assert psi2_image(gh(4, 5, seed=3)).rank == 4


def test_psi2_triangle_is_deficient():
    assert psi2_image(canonical_gh(4, 3, "deficient")).rank == 3
    assert psi2_image(canonical_gh(4, 3, "generic")).rank == 4


def test_psi2_rejects_class_three():
    from ghlie import hopf

    cover = hopf.cover_construct(hopf.presentation_from_class2(gh(3, 2, seed=0)))
    with pytest.raises(ClassTwoRequired):
        psi2_image(cover.algebra)
    with pytest.raises(ClassTwoRequired):
        Analysis.of(cover.algebra)


def coords(sub, v):
    """Coefficients of v in sub's RREF basis rows, or None if v is outside."""
    if not sub.contains_vec(v):
        return None
    # RREF: the pivot coordinates of v are exactly its basis coefficients.
    return {t: v[p] for t, p in enumerate(sub.pivots) if p in v}


def full_enumeration_span(a):
    """Span of the Jacobi cycle over *all* index triples, repeats included."""
    der = derived_subalgebra(a)
    comp = der.complement_coords()
    n = len(comp)
    gens = []
    for g1, g2, g3 in itertools.product(range(n), repeat=3):
        v = {}
        for (ci, cj), g in (
            ((comp[g1], comp[g2]), g3),
            ((comp[g3], comp[g1]), g2),
            ((comp[g2], comp[g3]), g1),
        ):
            for s, x in coords(der, a.pair(ci, cj)).items():
                key = s * n + g
                t = v.get(key, 0) + x
                if t:
                    v[key] = t
                else:
                    v.pop(key, None)
        if v:
            gens.append(v)
    return Subspace.from_vectors(der.dim * n, gens)


def test_triples_suffice_against_full_enumeration():
    # multilinearity + the repeated-argument vanishing make i<j<k triples enough;
    # K is read in the rebased algebra's coordinates (for the scrambled input,
    # a derived basis of pivot brackets), so the enumeration runs there too
    for a in (canonical_gh(3, 1), canonical_gh(4, 2), canonical_gh(4, 3, "deficient"),
              heisenberg(2), random_class2(4, seed=12), scrambled(canonical_gh(4, 2), 5)):
        b, _, _ = rebase_class2(a)
        assert psi2_image(a).image == full_enumeration_span(b)


def test_k_subspace_equals_psi2_image():
    # the analysis computes K on the rebased algebra from its stored L²
    for a in (canonical_gh(3, 1), canonical_gh(4, 1), heisenberg(2), random_class2(3, 5),
              scrambled(random_class2(3, 5), 1)):
        ctx = Analysis.of(a)
        assert ctx.k.image == psi2_image(a).image
        r = derived_subalgebra(ctx.algebra).dim
        assert (ctx.n, ctx.r) == (ctx.algebra.dim - r, r)
        assert ctx.algebra == class2_from_relations(ctx.n, ctx.presentation.rel2)


def _reference_psi2_span(a, der):
    """psi2_image's K as it was computed through der.coords, before the contract read."""
    r = der.dim
    comp = der.complement_coords()
    n = len(comp)
    gens = []
    for g1, g2, g3 in itertools.combinations(range(n), 3):
        v = {}
        for (ci, cj), g in (
            ((comp[g1], comp[g2]), g3),
            ((comp[g3], comp[g1]), g2),
            ((comp[g2], comp[g3]), g1),
        ):
            vec_axpy(v, 1, {s * n + g: x for s, x in coords(der, a.pair(ci, cj)).items()})
        if v:
            gens.append(v)
    return n, r, Subspace.from_vectors(r * n, gens)


def rational_basis(a, seed):
    """a in a seeded basis with entries p/q, |p| <= 3, 1 <= q <= 3."""
    rng = random.Random(seed)
    while True:
        m = Matrix.from_dense([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.dim)] for _ in range(a.dim)])
        if mat_rank(m) == a.dim:
            return change_of_basis(a, m)


def test_psi2_contract_read_matches_coords_reference():
    for k, a in enumerate((canonical_gh(3, 1), seeded_gh(4, 1, 0), seeded_gh(4, 3, 1), seeded_gh(5, 2, 2),
                           random_class2(4, 3), heisenberg(2), direct_sum(heisenberg(1), abelian(2)),
                           abelian(3))):
        b, rel2, _ = rebase_class2(rational_basis(a, k))
        n, r, image = _reference_psi2_span(b, derived_subalgebra(b))
        for got in (psi2_image(b, rel2), psi2_image(b), psi2_image(rational_basis(a, k))):
            assert (got.n, got.r, got.image) == (n, r, image), k


def test_jacobi_cycles_match_the_per_triple_reference(monkeypatch):
    # psi2_image reads each pair's bracket once; the generators its
    # column-singleton pre-pass takes must be the per-triple loop's, item for
    # item, key order and value types included.  It keeps the taken generators,
    # made primitive, and the forward rows of the rest: their count is the rank,
    # and their span is K as Subspace.from_vectors builds it from the cycles
    inputs = [c.build() for c in grid_cases((3, 4, 5, 6), (1, 2, 3), (0, 1, 2), 5)]
    inputs += [seeded_gh(d, k, s) for d in range(3, 13) for k in range(4) if k < d * (d - 1) // 2
               for s in range(3 if d <= 8 else 1)]
    inputs += [abelian(n) for n in range(4)] + [heisenberg(m) for m in (1, 2)]
    dense = [seeded_gh(4, 1, 0), seeded_gh(5, 2, 2), random_class2(4, 3), random_class2(5, 8),
             with_abelian_part(canonical_gh(4, 3, "deficient"), 2), direct_sum(heisenberg(1), abelian(2)),
             seeded_gh(6, 1, 0)]
    inputs += [rational_basis(a, s) for s, a in enumerate(dense)]
    assert len(inputs) >= 300
    seen = []
    singletons = exactla._singletons

    def recording(rows):
        seen.append(rows)
        return singletons(rows)

    monkeypatch.setattr(exactla, "_singletons", recording)
    fractions = 0
    for a in inputs:
        b, rel2, _ = rebase_class2(a)
        seen.clear()
        got = psi2_image(b, rel2)
        want = jacobi_cycle_generators(b, rel2)
        (gens,) = seen
        assert [list(v.items()) for v in gens] == [list(v.items()) for v in want]
        assert [[type(x) for x in v.values()] for v in gens] == [[type(x) for x in v.values()] for v in want]
        k = Subspace.from_vectors(got.r * got.n, want)
        assert got.image == k
        assert got.rank == k.dim == dimensions(got)["psi2_rank"]
        # a basis of K: independent primitive integer rows, each in K
        assert mat_rank(Matrix(got.r * got.n, got.rows)) == len(got.rows)
        assert all(gcd(*r.values()) == 1 for r in got.rows)
        assert all(type(x) is int for r in got.rows for x in r.values())
        assert all(k.contains_vec(r) for r in got.rows)
        fractions += any(type(x) is Fraction for v in gens for x in v.values())
    assert fractions  # some cycles hold non-integral entries


def test_analyze_rebases_and_presents_once(monkeypatch):
    # one analysis rebases its input once, computes Z(L) once (the rebase's
    # class-2 certificate, reused as the analysis's center), builds no lower
    # central series and one presentation
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # patch every module that binds a name, so no call goes uncounted
    for name, key in (("rebase_class2", "rebase"), ("center", "center"), ("lower_central_series", "lcs")):
        wrapper = counted(key, getattr(liealg, name))
        for module in (liealg, report, hopf, multiplier):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(hopf, "presentation_from_class2", counted("pres", hopf.presentation_from_class2))
    for a in (canonical_gh(4, 1), scrambled(random_class2(3, 5), 1), direct_sum(heisenberg(1), abelian(1))):
        calls.clear()
        analyze(a, with_oracle=True, check_ker_beta=True)
        assert calls == {"rebase": 1, "center": 1, "pres": 1}


# --- dimension formulas ------------------------------------------------------------

def test_multiplier_of_abelian():
    assert dims(abelian(4))["m_L"] == 6
    assert dims(abelian(1))["m_L"] == 0


def test_multiplier_examples():
    assert dims(canonical_gh(3, 1))["m_L"] == 6
    assert dims(canonical_gh(4, 2))["m_L"] == 14
    assert dims(heisenberg(1))["m_L"] == 2
    assert dims(heisenberg(2))["m_L"] == 5


def test_square_dim():
    assert square_dim(0) == 0
    assert square_dim(3) == 6
    assert square_dim(7) == 28


def test_wedge_tensor_j2():
    assert dims(canonical_gh(3, 1)) == {"m_L": 6, "wedge": 8, "tensor": 14, "j2": 12, "psi2_rank": 1}
    assert dims(abelian(3)) == {"m_L": 3, "wedge": 3, "tensor": 9, "j2": 9, "psi2_rank": 0}


def test_decomposition_identities():
    for a in (canonical_gh(4, 1), canonical_gh(5, 2), heisenberg(2), random_class2(4, 3)):
        r = derived_subalgebra(a).dim
        n = a.dim - r
        got = dims(a)
        assert got["wedge"] == got["m_L"] + r
        assert got["tensor"] == got["wedge"] + square_dim(n)
        assert got["j2"] == got["tensor"] - r


def test_classification_by_multiplier():
    assert classify_by_multiplier(gh(4, 5, seed=1)) == 1
    assert classify_by_multiplier(gh(4, 4, seed=1)) == 2
    assert classify_by_multiplier(gh(3, 3)) == 0
    assert classify_by_multiplier(canonical_gh(4, 3, "generic")) == "other"
    with pytest.raises(NotGeneralizedHeisenberg):
        classify_by_multiplier(abelian(3))


# --- direct sums ---------------------------------------------------------------------

def test_direct_sum_multiplier_law():
    for d, defect in ((3, 1), (4, 2), (5, 1)):
        rank = d * (d - 1) // 2 - defect
        h = gh(d, rank, seed=d)
        m = dims(h)["m_L"]
        for t in (1, 2):
            got = dims(direct_sum(h, abelian(t)))["m_L"]
            assert got == m + d * t + t * (t - 1) // 2


# --- third route: multiplier as second cohomology -----------------------------------

def h2_dim(a):
    """dim H²(L, Q): antisymmetric 2-cocycles modulo coboundaries.

    Independent of both the Jacobi-cycle count and the Hopf formula; over a
    field the multiplier has the dimension of H² with trivial coefficients.
    """
    from ghlie.exactla import Matrix, rank, vec_axpy

    n = a.dim
    pairs = list(itertools.combinations(range(n), 2))
    pidx = {p: w for w, p in enumerate(pairs)}
    rows = []
    for i, j, k in itertools.combinations(range(n), 3):
        row = {}
        for (x, y), z in (((i, j), k), ((k, i), j), ((j, k), i)):
            for l, c in a.pair(x, y).items():
                if l == z:
                    continue
                w, sign = (pidx[(l, z)], 1) if l < z else (pidx[(z, l)], -1)
                vec_axpy(row, sign * c, {w: 1})
        rows.append(row)
    constraints = Matrix(len(pairs), rows)
    cocycles = len(pairs) - rank(constraints)
    coboundaries = derived_subalgebra(a).dim
    return cocycles - coboundaries


def test_multiplier_agrees_with_second_cohomology():
    cases = [
        abelian(3), heisenberg(1), heisenberg(2),
        canonical_gh(3, 1), canonical_gh(3, 2), canonical_gh(4, 2),
        canonical_gh(4, 3, "deficient"),
        direct_sum(canonical_gh(3, 1), abelian(1)),
    ] + [random_class2(4, seed) for seed in range(6)]
    for a in cases:
        assert h2_dim(a) == dims(a)["m_L"]


# --- capability ------------------------------------------------------------------------

def test_capability_of_defect_families():
    rep = capability_by_quotients(canonical_gh(3, 1))
    assert rep.capable and rep.exterior_center_dim == 0
    assert rep.all_quotients_drop
    rep = capability_by_quotients(canonical_gh(4, 2))
    assert rep.capable


def test_heisenberg2_is_not_capable():
    rep = capability_by_quotients(heisenberg(2))
    assert not rep.capable
    assert rep.exterior_center_dim == 1
    # quotient by the center is A(4) whose multiplier exceeds M(H(2)) = 5
    assert not rep.all_quotients_drop


def test_heisenberg1_is_capable():
    rep = capability_by_quotients(heisenberg(1))
    assert rep.capable and rep.multiplier == 2


def _reference_lines(a, random_lines, seed):
    """capability_by_quotients' lines as drawn before the redraw was bounded."""
    z = liealg.center(a)
    lines = [{c: ONE} for c in range(a.dim) if z.contains_vec({c: ONE})]
    rng = random.Random(seed)
    for _ in range(random_lines):
        v = {}
        while not v:
            for row in z.vectors():
                vec_axpy(v, F(rng.randint(-2, 2)), row)
        lines.append(v)
    return lines


class _ZeroRng:
    """Stands in for random.Random; every draw is 0, so every line comes out zero."""

    def randint(self, lo, hi):
        return 0


def test_capability_redraw_is_bounded(monkeypatch):
    # same lines, in the same draw order, as the unbounded loop
    for a, seed in ((canonical_gh(3, 1), 0), (heisenberg(1), 3), (scrambled(canonical_gh(4, 2), 2), 1),
                    (direct_sum(heisenberg(1), abelian(2)), 5)):
        assert [e.line for e in capability_by_quotients(a, seed=seed).evidence] == _reference_lines(a, 4, seed)
    monkeypatch.setattr(report, "random", SimpleNamespace(Random=lambda seed: _ZeroRng()))
    with pytest.raises(ValueError, match="no nonzero central line"):
        capability_by_quotients(canonical_gh(3, 1))
    assert capability_by_quotients(canonical_gh(3, 1), random_lines=0).capable


# --- basis-change invariance -------------------------------------------------------------

def test_reported_dimensions_are_basis_invariant():
    a = canonical_gh(4, 2)
    base = dims(a)
    for seed in range(77, 82):
        assert dims(scrambled(a, seed)) == base
