"""Hopf-formula oracle over a Hall-basis model of the free class-3 algebra.

This is the independent route against which the exact-sequence formulas are
checked.  A class-2 algebra L on d generators is presented as F/R where F is
the free nilpotent Lie algebra of class 3 on x_1..x_d and R = S ⊕ F³ for the
grade-2 relation space S.  Then

    M(L)  = (R ∩ F²)/[R,F]   -> dim S + dim F³ - dim [S,F]
    L∧L   = F²/[R,F]         -> dim F² - dim [S,F]

and the exterior center, ker β and the cover F/[R,F] are all finite linear
algebra in the graded coordinates.  Truncation at class 3 is sound because
L has class 2, so R ⊇ γ₃(F); hence [R,F] ⊇ γ₄(F), and F/[R,F] is a quotient
of F_{d,3}.  The β images [lift_s, x_g] mod [R,F], read by both the exterior
center and ker β, are built once per presentation as integer rows from
[R,F]'s ``unit_images()``, each D times its image for that D, the lcm of
[R,F]'s pivot entries: a common scale changes no rank and no relation, so
only the cover's table divides by D.  ``analyze`` asks only whether ker β is
K, and ``ker_beta_agrees`` answers by certificate from any basis of K: its
rows lie in ker β, and dim ker β = dim K.  It reads only the exterior
center's dimension.

Hall conventions (fixed so signs are reproducible bit for bit):
  * generators x_1 < ... < x_d (0-based internally);
  * grade 2: [x_i, x_j] with i < j, lexicographic;
  * grade 3: [[x_i, x_j], x_k] with i < j and k >= i, lexicographic, which
    counts (d³-d)/3; the one rewrite needed, for k < i < j, is
    [[x_i, x_j], x_k] = [[x_k, x_j], x_i] - [[x_k, x_i], x_j].

``HallBasis.rule`` holds that rule as a table, built once per d: the one or
two signed triples of [[x_i, x_j], x_g] for each pair and generator.  It is
the only bracket rewrite here.  [R,F] is spanned through ``wedge_gen_bracket``,
which reads it; the β images and the cover's table sum the one or two images
it names, each triple's image mod [R,F] read off ``unit_images()``.
Every bracket of grade >= 4 vanishes in F_{d,3}.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .exactla import Subspace, Vec, _forward, _ratio, relations, vec_axpy
from .liealg import (
    LieAlgebra,
    bracket_vectors,
    center,
    derived_subalgebra,
    integral_table,
    lower_central_series,
    quotient,
    rebase_class2,
    wedge_pairs,
)
from .multiplier import dimensions, psi2_image


class HallBasis:
    """Graded Hall basis of the free nilpotent class-3 algebra on d generators."""

    __slots__ = ("d", "pairs", "triples", "pair_index", "triple_index", "rule")

    def __init__(self, d: int):
        self.d = d
        self.pairs = wedge_pairs(d)
        self.triples = [
            (i, j, k) for (i, j) in self.pairs for k in range(i, d)
        ]
        self.pair_index = {p: w for w, p in enumerate(self.pairs)}
        t = self.triple_index = {t: m for m, t in enumerate(self.triples)}
        # rule[w][g]: the (triple, sign) terms of [[x_i, x_j], x_g] for pair w = (i, j),
        # the triple (i, j, g) when g >= i, else (g, j, i) - (g, i, j)
        self.rule = [
            [((t[(i, j, g)], 1),) if g >= i else ((t[(g, j, i)], 1), (t[(g, i, j)], -1)) for g in range(d)]
            for (i, j) in self.pairs
        ]

    @property
    def grade2_dim(self) -> int:
        return len(self.pairs)

    @property
    def grade3_dim(self) -> int:
        return len(self.triples)


@functools.cache
def hall_basis(d: int) -> HallBasis:
    return HallBasis(d)


def wedge_gen_bracket(h: HallBasis, w: Vec, g: int) -> Vec:
    """[w, x_g] for w in the grade-2 pair coordinates, in grade-3 triple coordinates.

    Read off ``h.rule``.  For a fixed g distinct pairs give distinct triples, so
    no two terms meet.
    """
    out: Vec = {}
    for c, x in w.items():
        for m, sign in h.rule[c][g]:
            out[m] = x if sign > 0 else -x
    return out


@dataclass
class FreePresentation:
    """Class-2 target presented as F_{d,3}/(rel2 ⊕ F³).

    rel2 lives in the grade-2 wedge coordinates, rel_bracket_span = [rel2, F]
    in the grade-3 coordinates.  lifts[s] is a grade-2 preimage of the s-th
    derived basis vector of the target: the unit wedge vector at rel2's s-th
    complement coordinate, whose bracket it is.  The β images are built on
    first use (see ``_beta_images``) and kept with the presentation, as
    integer rows over the D of ``rel_bracket_span.unit_images()``, which
    holds each triple's image mod [R,F].
    """

    hall: HallBasis
    rel2: Subspace
    rel_bracket_span: Subspace
    lifts: list[Vec]
    target: LieAlgebra
    _beta: list[Vec] | None = field(default=None, init=False, compare=False, repr=False)


def presentation_from_class2(a: LieAlgebra, rel2: Subspace | None = None) -> FreePresentation:
    """Free presentation of a nilpotent algebra of class <= 2.

    rel2 is the relation subspace rebase_class2 returns with a rebased;
    without it a is rebased here (which also rejects class > 2).  The stored
    target is the rebased algebra, class2_from_relations(d, rel2), so rel2 is
    S itself and y_s is the bracket of rel2's s-th complement coordinate:
    lift s is that unit wedge vector.
    """
    if rel2 is None:
        a, rel2, _ = rebase_class2(a)
    lifts: list[Vec] = [{c: 1} for c in rel2.complement_coords()]
    h = hall_basis(a.dim - len(lifts))
    bracket_gens = []
    for s_vec in rel2.integer_rows():  # the span of [rel2, F] is all that is kept
        for k in range(h.d):
            w3 = wedge_gen_bracket(h, s_vec, k)
            if w3:
                bracket_gens.append(w3)
    rf = Subspace.from_vectors(h.grade3_dim, bracket_gens)
    return FreePresentation(h, rel2, rf, lifts, a)


def hopf_multiplier_dim(p: FreePresentation) -> int:
    """dim (R ∩ F²)/[R,F] = dim rel2 + dim F³ - dim [rel2, F]."""
    return p.rel2.dim + p.hall.grade3_dim - p.rel_bracket_span.dim


def exterior_square_oracle(p: FreePresentation) -> int:
    """dim F²/[R,F]."""
    return p.hall.grade2_dim + p.hall.grade3_dim - p.rel_bracket_span.dim


def _bracket_image(images: list[Vec], terms: tuple) -> Vec:
    """D times the signed sum of the one or two triple images a ``HallBasis.rule``
    entry names, an integer row, for [R,F]'s ``unit_images()`` (D, images).  The
    first term's sign is +1, so a one-term entry's image is the triple's own row,
    shared with ``images``.
    """
    out = images[terms[0][0]]
    if len(terms) == 2:
        out = dict(out)
        vec_axpy(out, terms[1][1], images[terms[1][0]])
    return out


def _beta_images(p: FreePresentation) -> list[Vec]:
    """β on the basis: entry s·d + g is D times [lift_s, x_g] mod [R,F] in quotient coordinates.

    D is the lcm of [R,F]'s pivot entries, from ``rel_bracket_span.unit_images()``.
    Built on first use and kept with the presentation; entries are integer
    rows and may share their dicts with those images, so none is mutated.
    """
    if p._beta is None:
        images, rule = p.rel_bracket_span.unit_images()[1], p.hall.rule
        # each lift is a unit wedge vector, so its row of β is its pair's row of the rule
        p._beta = [_bracket_image(images, terms) for (c,) in p.lifts for terms in rule[c]]
    return p._beta


def ker_beta(p: FreePresentation) -> Subspace:
    """Kernel of β: L² ⊗ L/L² -> F³/[R,F], (s, g) -> [lift(y_s), x_g].

    The relations among the β images, in their (derived index, generator
    index) lexicographic coordinates, shared with the Jacobi-cycle subspace K,
    so equality checks are literal.  The canonical basis is built for the d = 3
    extension witness, which reads quotient coordinates mod ker β; ``analyze``
    asks only whether ker β is K, through ``ker_beta_agrees``.
    """
    return relations(_beta_images(p))


def ker_beta_agrees(p: FreePresentation, basis: list[Vec]) -> tuple[int, bool]:
    """(dim ker β, ker β == span(basis)) without building ker β.

    basis is any list of independent rows in ker β's coordinates, such as K's
    basis rows, so its span has dimension len(basis).  ker β is that span
    exactly when the span lies in ker β and the dimensions agree.  dim ker β is
    r·d - rank β, the rank counted off the β images by the forward pass alone,
    never off dim F³ - dim [R,F], which holds by construction.  The images are
    mostly repeated unit rows, which the column-singleton pre-pass seldom
    takes: of the 22,572 images of seeded_gh(36, 3, 0) it takes 35, and
    running it first would double rank β's time (23 to 52 ms).  A row x lies
    in ker β when Σ xᵢ·βᵢ, summed in integers over the β rows, is zero.
    """
    beta = _beta_images(p)
    dim = len(beta) - len(_forward(beta))
    if dim != len(basis):
        return dim, False
    for row in basis:
        v: Vec = {}
        for i, x in row.items():
            for q, y in beta[i].items():
                v[q] = v.get(q, 0) + x * y
        if any(v.values()):
            return dim, False
    return dim, True


def exterior_center(p: FreePresentation) -> Subspace:
    """Elements x of the target with x ∧ L = 0: lifts with [x̃, F] ⊆ [R,F].

    Expressed in target coordinates (d generators, then r derived), as the
    relations among one vector per basis element.  The generator block must
    already vanish in grade 2, so only derived-direction elements can survive;
    capability of the target is exactly this being zero.
    """
    d = p.hall.d
    beta = _beta_images(p)
    # grade-2 component of [Σ a_i x_i, x_k] is ±a_i on the pair {i, k}, so it vanishes
    # for every k iff a = 0: x_i's vector is the unit at i (zero with one generator, no pair)
    vectors: list[Vec] = [{i: 1} if d > 1 else {} for i in range(d)]
    # grade-3 component of [Σ b_s lift_s, x_k] must lie in [R,F]: y_s's vector holds
    # [lift_s, x_k] mod [R,F] at coordinate d + q·d + k of quotient coordinate q
    for s in range(len(p.lifts)):
        vectors.append({d + q * d + k: x for k in range(d) for q, x in beta[s * d + k].items()})
    return relations(vectors)


@dataclass
class Cover:
    """The cover F/[R,F] together with its central ideal B = R/[R,F]."""

    algebra: LieAlgebra
    central_ideal: Subspace


def cover_construct(p: FreePresentation) -> Cover:
    """Quotient F_{d,3}/[R,F]; dim = dim L + dim M(L), B = R/[R,F] central.

    Basis: the generators, the wedge pairs, then the triples of a complement of
    [R,F].  [x_i, x_j] (i < j) is its pair coordinate and [x_g, e_w] is
    -[e_w, x_g] mod [R,F] by the Hall rule, read off [R,F]'s ``unit_images()``
    and divided by its D; every other basis bracket has grade >= 4 and is zero.
    """
    h = p.hall
    d = h.d
    rf = p.rel_bracket_span
    comp3 = rf.complement_coords()
    g2 = h.grade2_dim
    dim = d + g2 + len(comp3)
    table = {ij: {d + w: 1} for w, ij in enumerate(h.pairs)}
    den, images = rf.unit_images()
    for g in range(d):
        for w in range(g2):
            img = _bracket_image(images, h.rule[w][g])
            if img:
                table[(g, d + w)] = {d + g2 + q: _ratio(-x, den) for q, x in img.items()}
    gen_labels = list(p.target.labels[:d])
    pair_labels = [f"[{gen_labels[i]},{gen_labels[j]}]" for i, j in h.pairs]
    triple_labels = [
        f"[[{gen_labels[i]},{gen_labels[j]}],{gen_labels[k]}]"
        for (i, j, k) in (h.triples[m] for m in comp3)
    ]
    algebra = LieAlgebra._normal(dim, gen_labels + pair_labels + triple_labels, table)
    b_gens = [{d + w: x for w, x in v.items()} for v in p.rel2.integer_rows()]
    b_gens += [{d + g2 + q: 1} for q in range(len(comp3))]
    central = Subspace.from_vectors(dim, b_gens)
    return Cover(algebra, central)


@dataclass
class CoverReport:
    cover_dim: int
    expected_dim: int
    nilpotency_class: int
    expected_class: int
    z_in_derived: bool
    b_central: bool
    b_in_derived: bool
    b_dim: int
    multiplier: int
    quotient_matches: bool
    cube_dim: int
    s: int
    defect: int
    branch_ok: bool
    witness_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return (
            self.cover_dim == self.expected_dim
            and self.nilpotency_class == self.expected_class
            and (self.z_in_derived or self.nilpotency_class in (0, 1))
            and self.b_central
            and self.b_in_derived
            and self.b_dim == self.multiplier
            and self.quotient_matches
            and self.branch_ok
            and self.witness_ok is not False
        )


def verify_cover(a: LieAlgebra, cover: LieAlgebra, b: Subspace) -> CoverReport:
    """Check the Thm-2.6 shape of a claimed cover of the class-2 algebra a.

    a is rebased once; d = dim L/L² is read off K of the rebased table.
    The quotient cover/B must equal the rebased table, the basis a cover built
    by cover_construct induces on it.  Branch detection: s = dim B - dim (L*)³
    with B ≅ (L*)³ ⊕ A(s) whenever (L*)³ ⊆ B; the defect bound is dim rel2,
    the dimension of the grade-2 relations, d(d-1)/2 - dim L² since the
    generator brackets span L².  The expected class comes from the formula
    route: (L*)³ ≅ (L² ⊗ L/L²)/K has dimension r·n - rank K, and when that
    is 0 the cover has class min(dim L, 2), as for A(n) and for H(m), m >= 2.
    A free presentation is built only for the d = 3 extension witness.
    The cover is read times c, the lcm of its denominators (``integral_table``):
    x ↦ c·x is an isomorphism onto the cover, so L², the lower central series,
    Z and B's containments are unchanged, and cover/B, c times the quotient,
    is compared with the rebased table times c.
    """
    a, rel2, _ = rebase_class2(a)
    k = psi2_image(a, rel2)
    c, table = integral_table(cover.bracket)
    cover = cover if c == 1 else LieAlgebra._normal(cover.dim, cover.labels, table)
    der = derived_subalgebra(cover)
    z = center(cover, der)
    series = lower_central_series(cover, der)
    # The class counts the nonzero terms; -1 marks a non-nilpotent cover.
    cls = sum(1 for t in series if t.dim) if series[-1].dim == 0 else -1
    # series[2] is (L*)³ when present ([L, L², L³, ...]).
    cube = series[2] if len(series) > 2 else Subspace.zero(cover.dim)
    # Z(cover) is {v : [v, e_j] = 0 for all j}, so B is central iff B ⊆ Z(cover).
    b_central = all(z.contains_vec(u) for u in b.integer_rows())
    b_in_derived = all(der.contains_vec(u) for u in b.integer_rows())
    z_in_derived = all(der.contains_vec(u) for u in z.integer_rows())
    m_dim = dimensions(k)["m_L"]
    cube_in_b = all(b.contains_vec(u) for u in cube.integer_rows())
    s = b.dim - cube.dim
    witness_ok = None
    if k.n == 3:
        witness_ok = _extension_witness_agrees(presentation_from_class2(a, rel2), series)
    return CoverReport(
        cover_dim=cover.dim,
        expected_dim=a.dim + m_dim,
        nilpotency_class=cls,
        expected_class=3 if k.r * k.n > k.rank else min(a.dim, 2),
        z_in_derived=z_in_derived,
        b_central=b_central,
        b_in_derived=b_in_derived,
        b_dim=b.dim,
        multiplier=m_dim,
        quotient_matches=quotient(cover, b) == LieAlgebra._normal(a.dim, a.labels, {
            p: {i: _ratio(x.numerator * c, x.denominator) for i, x in w.items()} for p, w in a.bracket.items()}),
        cube_dim=cube.dim,
        s=s,
        defect=rel2.dim,
        branch_ok=cube_in_b and 0 <= s <= rel2.dim,
        witness_ok=witness_ok,
    )


def extension_witness(p: FreePresentation) -> LieAlgebra:
    """The central extension from the explicit generator/relation table.

    Basis: generator images, derived images, the wedge symbols e_ij, and a
    basis of N = (L²⊗L/L²)/ker β.  The subalgebra generated by the generator
    images recovers the cover; used as a d=3 cross-check of cover_construct.
    """
    t = p.target
    h = p.hall
    d = h.d
    r = t.dim - d
    kb = ker_beta(p)
    n_dim = r * d - kb.dim
    g2 = h.grade2_dim
    dim = d + r + g2 + n_dim
    den, images = kb.unit_images()

    def n_image(s: int, i: int) -> Vec:
        return {d + r + g2 + q: _ratio(x, den) for q, x in images[s * d + i].items()}

    table: dict[tuple[int, int], Vec] = {}
    for i, j in itertools.combinations(range(d), 2):
        v: Vec = dict(t.pair(i, j))
        v[d + r + h.pair_index[(i, j)]] = 1
        table[(i, j)] = v
    for s in range(r):
        for i in range(d):
            v = n_image(s, i)
            if v:
                # [y_s, x_i] = a_si, stored as [x_i, y_s] = -a_si
                table[(i, d + s)] = {c: -x for c, x in v.items()}
    labels = (
        list(t.labels)
        + [f"e{i+1}{j+1}" for i, j in h.pairs]
        + [f"n{q+1}" for q in range(n_dim)]
    )
    return LieAlgebra(dim, labels, table)


def _extension_witness_agrees(p: FreePresentation, series: list[Subspace]) -> bool:
    """The subalgebra the generators generate in the witness has the cover's series.

    series is the cover's lower central series, as verify_cover built it.  The
    k-th term of the generated subalgebra's series is spanned by the
    left-normed brackets of at least k generators, read in the witness's own
    coordinates; the witness is graded, so the brackets run out.
    """
    lstar = extension_witness(p)
    gens = [{g: 1} for g in range(p.hall.d)]
    terms = [gens]  # terms[k]: the nonzero left-normed brackets of k + 1 generators
    while terms[-1]:
        terms.append([w for u in terms[-1] for g in gens if (w := bracket_vectors(lstar, u, g))])
    dims = [Subspace.from_vectors(lstar.dim, [v for t in terms[k:] for v in t]).dim
            for k in range(len(terms))]
    return dims == [t.dim for t in series]
