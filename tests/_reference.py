"""Test-only instances and ledger reads that nothing in the engine calls.

``random_class2`` draws the Z(L) ⊋ L² algebras of the oracle concordance checks;
``is_expected_mismatch`` reads the closed-form ledger by (key, defect, variant, t);
``jacobi_cycle_generators`` is psi2_image's generator loop as it was before each
pair's bracket was read once; ``kernel_rank``, ``kernel_basis`` and
``kernel_relations`` are the rank, basis and null space by the elimination
kernel alone, as they were read before the column-singleton pre-pass, and
``assert_prepass_agrees`` checks the pre-pass against them;
``reference_triple_images``, ``reference_bracket_image``,
``reference_beta_images`` and ``reference_ker_beta_agrees`` are the β map and
the ker β certificate as they were before the β rows shared one denominator
(each image divided into Fractions, each row of K mapped into F³ through the
Hall rule and reduced mod [R,F]); ``reduction_check`` and ``thm29_display_at``
read the printed Thm 2.9 displays against their Thm 2.3/2.7 twins;
``reference_center`` and ``reference_rebase_class2`` are center and the rebase
as they were before L² came from the generators' brackets (L² from all
C(dim, 2) brackets, the claim that it is central read at its pivots only, the
Jacobi scan on the table as given); ``reference_verify_cover`` is verify_cover
as it was before it read the cover scaled to integers (every check on the
cover's own table, Fractions included, and cover/B compared with the rebased
table as it is); ``reference_class2_from_relations`` and
``reference_extension_witness`` are the rebased table and the d = 3 witness
as they were before every quotient image came from ``Subspace.unit_images``
(the table read off the unit-pivot ``vectors()`` rows, the witness off one
``quotient_coords`` per unit vector); ``reference_unpacked_center`` is center
as it was before the claim that a subspace is central was checked on packed
ints (one ``vec_axpy`` per bracket entry); ``reference_document_to_algebra``
and ``reference_unique_keys`` are the document reader as it was before it
read a table in one pass (int() on every key, zeros kept until LieAlgebra
dropped them, and a ``Counter`` over every JSON object's keys); ``classify_by_multiplier`` reads the
defect off (d, dim M(L)), and ``write_document`` writes an algebra as a JSON
document.
"""

import copy
import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import lcm

from ghlie.closed_forms import _displays_t0, _displays_t9, _int, _suspect_reason, _validate
from ghlie.docio import DocumentError, _is_int, _reject_unknown_keys, algebra_to_document, dumps, parse_rational
from ghlie.exactla import (
    Subspace,
    _forward,
    _primitive_copy,
    _ratio,
    _relations,
    _singletons,
    basis,
    relations,
    vec_axpy,
)
from ghlie.hopf import CoverReport, _extension_witness_agrees, ker_beta, presentation_from_class2
from ghlie.liealg import (
    ClassTwoRequired,
    JacobiViolation,
    LieAlgebra,
    NotCentral,
    _ad_basis,
    _adjoint,
    center,
    integral_table,
    class2_from_relations,
    derived_subalgebra,
    jacobi_check,
    lower_central_series,
    quotient,
    random_relation_subspace,
    rebase_class2,
    wedge_pairs,
)
from ghlie.multiplier import dimensions, psi2_image
from ghlie.report import Analysis


def random_class2(d: int, seed: int) -> LieAlgebra:
    """Seeded class-2 nilpotent algebra on d generators, any derived rank >= 1.

    No center condition: these exercise the Z(L) ⊋ L² regime of the oracle
    concordance checks.  dim L² = rank holds by construction.
    """
    rng = random.Random(seed)
    rank = rng.randint(1, d * (d - 1) // 2)
    return class2_from_relations(d, random_relation_subspace(d, rank, rng))


def is_expected_mismatch(key: str, defect: int, variant: str, t: int) -> bool:
    return _suspect_reason(key, defect, variant, t) is not None


def jacobi_cycle_generators(a: LieAlgebra, rel2) -> list[dict]:
    """The Jacobi cycles psi2_image spans, built per triple from three a.pair() copies.

    a is rebased and rel2 its relation subspace, as psi2_image takes them.
    """
    r = rel2.ambient_dim - rel2.dim
    n = a.dim - r
    gens = []
    for g1, g2, g3 in itertools.combinations(range(n), 3):
        v = {}
        for (i, j), g in (((g1, g2), g3), ((g3, g1), g2), ((g2, g3), g1)):
            v.update({(c - n) * n + g: x for c, x in a.pair(i, j).items()})
        if v:
            gens.append(v)
    return gens


def kernel_rank(rows: list[dict]) -> int:
    """The number of pivots of one forward pass over every row."""
    return len(_forward(rows))


def kernel_basis(rows: list[dict]) -> list[dict]:
    """The forward pass's primitive integer rows: a basis of the span."""
    return [r for _, r in _forward(rows)]


def kernel_relations(vectors: list[dict]) -> Subspace:
    """{c : Σ cᵢ vᵢ = 0}, canonical, from one forward pass over [vᵢ | eᵢ] on any shape:
    the rows that lead inside the unit block span the relations."""
    off = max(set().union(*vectors), default=-1) + 1
    done = _forward([{**v, off + i: 1} for i, v in enumerate(vectors)])
    return Subspace.from_vectors(len(vectors), [{c - off: x for c, x in r.items()} for lead, r in done if lead >= off])


def assert_prepass_agrees(rows: list[dict]) -> tuple[list[int], list[int]]:
    """The column-singleton pre-pass against the kernel alone on rows; returns its (taken, rest).

    The positions split into taken nonzero rows and the rest, in order, where no
    column is held by exactly one nonzero row.  The taken rows, made primitive,
    and the forward rows of the rest are ``basis``, independent and spanning the
    rows, and ``relations`` is the kernel's, row for row and key for key.  rows
    are not mutated.
    """
    before = copy.deepcopy(rows)
    taken, rest = _singletons(rows)
    assert sorted(taken + rest) == list(range(len(rows))) and rest == sorted(rest)
    assert all(rows[i] for i in taken)
    assert 1 not in Counter(itertools.chain.from_iterable(rows[i] for i in rest)).values()
    cols = max(set().union(*rows), default=-1) + 1
    spanning = [_primitive_copy(rows[i]) for i in taken] + kernel_basis([rows[i] for i in rest])
    assert basis(rows) == spanning
    assert len(spanning) == kernel_rank(rows) == kernel_rank(spanning)
    assert Subspace.from_vectors(cols, spanning) == Subspace.from_vectors(cols, rows)
    got, want = relations(rows), kernel_relations(rows)
    assert got == want == _relations(rows)
    assert [list(r.items()) for r in got.integer_rows()] == [list(r.items()) for r in want.integer_rows()]
    assert rows == before
    return taken, rest


def reference_triple_images(p) -> list[tuple[int, dict]]:
    """Entry m is (den, u) with u/den triple m mod [R,F] in quotient coordinates:
    (1, unit) off the pivots of [R,F], (row[m], -row without m) at a pivot."""
    rf = p.rel_bracket_span
    comp = rf.complement_coords()
    pos = dict(zip(comp, itertools.count()))
    images: list = [None] * rf.ambient_dim
    for q, c in enumerate(comp):
        images[c] = (1, {q: 1})
    for m, row in zip(rf.pivots, rf.integer_rows()):
        images[m] = (row[m], {pos[c]: -x for c, x in row.items() if c != m})
    return images


def reference_bracket_image(images: list[tuple[int, dict]], terms: tuple) -> dict:
    """The signed sum of the one or two triple images a Hall rule entry names,
    summed over the lcm of their dens and divided by ``_ratio``."""
    if len(terms) == 1:
        den, u = images[terms[0][0]]
        return u if den == 1 else {q: _ratio(x, den) for q, x in u.items()}
    (m1, s1), (m2, s2) = terms
    d1, u1 = images[m1]
    d2, u2 = images[m2]
    den = lcm(d1, d2)
    f1, f2 = s1 * (den // d1), s2 * (den // d2)
    out = dict(u1) if f1 == 1 else {q: f1 * x for q, x in u1.items()}
    for q, x in u2.items():
        y = out.get(q, 0) + f2 * x
        if y:
            out[q] = y
        else:
            del out[q]
    return out if den == 1 else {q: _ratio(x, den) for q, x in out.items()}


def reference_beta_images(p) -> list[dict]:
    """Entry s·d + g is [lift_s, x_g] mod [R,F] in quotient coordinates, ints or Fractions."""
    images, rule = reference_triple_images(p), p.hall.rule
    return [reference_bracket_image(images, terms) for (c,) in p.lifts for terms in rule[c]]


def reference_ker_beta_agrees(p, basis: list[dict]) -> tuple[int, bool]:
    """(dim ker β, ker β == span(basis)): rank β off the Fraction β images, and
    each row of basis mapped into F³ through the Hall rule, then reduced mod [R,F]."""
    beta = reference_beta_images(p)
    dim = len(beta) - len(_forward(beta))
    if dim != len(basis):
        return dim, False
    rule = p.hall.rule
    terms = [t for (c,) in p.lifts for t in rule[c]]  # entry s·d + g: [lift_s, x_g]
    for row in basis:
        v = {}
        for i, x in row.items():
            for m, sign in terms[i]:
                v[m] = v.get(m, 0) + sign * x
        if p.rel_bracket_span.reduce({m: y for m, y in v.items() if y}):
            return dim, False
    return dim, True


def reduction_check(d: int, defect: int, variant: str = "generic") -> dict[str, bool]:
    """Do the Thm 2.9 displays reduce at t = 0 to their Thm 2.3/2.7 twins?

    False entries identify the displays carrying the double-count / off-by-one
    defects; printed-vs-printed, no computed values involved.
    """
    _validate(d, defect, variant)
    zero = _displays_t0(F(d), defect, variant)
    nine = _displays_t9(F(d), F(0), defect, variant)
    return {k: _int(nine[k][0]) == _int(zero[k][0]) for k in zero}


def thm29_display_at(d: int, t: int, defect: int, variant: str = "generic") -> dict[str, int]:
    """The Thm 2.9 display family evaluated verbatim at any t, including 0."""
    _validate(d, defect, variant)
    return {k: _int(v) for k, (v, _) in _displays_t9(F(d), F(t), defect, variant).items()}


def reference_center(a: LieAlgebra, der: Subspace | None = None, central: Subspace | None = None) -> Subspace:
    """center as it was: the claim that central is central read only at L²'s pivots
    (sound only when central lies in L²), every row against every coordinate."""
    n = a.dim
    piv = set((derived_subalgebra(a) if der is None else der).pivots)
    central = Subspace.zero(n) if central is None else central
    held = {i for u in central.integer_rows() for i in u}
    touching = {(i, j): w for (i, j), w in a.bracket.items() if i in held or j in held}
    den = lcm(*(x.denominator for w in touching.values() for x in w.values()))
    scaled = {p: {k: x.numerator * (den // x.denominator) for k, x in w.items() if k in piv}
              for p, w in touching.items()}
    if any(_ad_basis(_adjoint(n, scaled), central.integer_rows())):
        raise NotCentral("the subspace claimed central is not central")
    comp = central.complement_coords()
    pos = {c: s for s, c in enumerate(comp)}
    ads: list[dict] = [{} for _ in comp]
    for (i, j), w in a.bracket.items():
        if i in pos and j in pos:
            ad_i, ad_j = ads[pos[i]], ads[pos[j]]
            for k, x in w.items():
                if k in piv:
                    ad_i[j * n + k] = x
                    ad_j[i * n + k] = -x
    ker = relations(ads)
    if not (central.dim and ker.dim):
        return central if central.dim else ker
    lifted = [{comp[s]: x for s, x in r.items()} for r in ker.integer_rows()]
    return Subspace.from_vectors(n, central.integer_rows() + lifted)


def reference_rebase_class2(a: LieAlgebra):
    """rebase_class2 as it was: L² = derived_subalgebra(a), the span of all C(dim, 2)
    brackets, certified central by reference_center, the Jacobi scan on a's own table."""
    der = derived_subalgebra(a)
    try:
        z = reference_center(a, der, der)
    except NotCentral:
        bad = jacobi_check(a)
        if bad:
            raise JacobiViolation(bad) from None
        raise ClassTwoRequired("input must be nilpotent of class at most 2") from None
    gens = der.complement_coords()
    pairs = wedge_pairs(len(gens))
    piv = set(der.pivots)
    rel2 = relations([{p: x for p, x in a.pair(gens[i], gens[j]).items() if p in piv} for i, j in pairs])
    labels = [a.labels[g] for g in gens] + [a.labels[p] for p in der.pivots]
    return class2_from_relations(len(gens), rel2, labels), rel2, z


def reference_verify_cover(a: LieAlgebra, cover: LieAlgebra, b: Subspace) -> CoverReport:
    """verify_cover as it was: every check on the cover's table as given, Fraction
    entries included, and cover/B compared with the rebased table itself."""
    a, rel2, _ = rebase_class2(a)
    k = psi2_image(a, rel2)
    der = derived_subalgebra(cover)
    z = center(cover, der)
    series = lower_central_series(cover, der)
    cls = sum(1 for t in series if t.dim) if series[-1].dim == 0 else -1
    cube = series[2] if len(series) > 2 else Subspace.zero(cover.dim)
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
        quotient_matches=quotient(cover, b) == a,
        cube_dim=cube.dim,
        s=s,
        defect=rel2.dim,
        branch_ok=cube_in_b and 0 <= s <= rel2.dim,
        witness_ok=witness_ok,
    )


def reference_class2_from_relations(d: int, relations: Subspace, labels=None) -> LieAlgebra:
    """class2_from_relations as it was: mod relations, a pivot pair is minus the
    rest of its unit-pivot RREF row, read off ``vectors()``."""
    pairs = wedge_pairs(d)
    comp = relations.complement_coords()
    if labels is None:
        labels = [f"x{i+1}" for i in range(d)] + [f"y{s+1}" for s in range(len(comp))]
    pos = {c: d + s for s, c in enumerate(comp)}
    img = {c: {k: 1} for c, k in pos.items()}
    for p, row in zip(relations.pivots, relations.vectors()):
        img[p] = {pos[c]: -x for c, x in row.items() if c != p}
    return LieAlgebra(d + len(comp), labels, {pairs[w]: img[w] for w in range(len(pairs))})


def reference_extension_witness(p) -> LieAlgebra:
    """extension_witness as it was: each [y_s, x_i] read off ``quotient_coords``
    of its unit vector mod ker β."""
    t, h = p.target, p.hall
    d = h.d
    r = t.dim - d
    kb = ker_beta(p)
    n_dim = r * d - kb.dim
    g2 = h.grade2_dim
    table = {}
    for i, j in itertools.combinations(range(d), 2):
        v = dict(t.pair(i, j))
        v[d + r + h.pair_index[(i, j)]] = 1
        table[(i, j)] = v
    for s in range(r):
        for i in range(d):
            v = {d + r + g2 + q: x for q, x in kb.quotient_coords({s * d + i: 1}).items()}
            if v:
                table[(i, d + s)] = {c: -x for c, x in v.items()}
    labels = list(t.labels) + [f"e{i+1}{j+1}" for i, j in h.pairs] + [f"n{q+1}" for q in range(n_dim)]
    return LieAlgebra(d + r + g2 + n_dim, labels, table)


def reference_unpacked_center(a: LieAlgebra, der: Subspace | None = None, central: Subspace | None = None) -> Subspace:
    """center as it was: each [u_p, e_j] of the claim summed as a dict by ``vec_axpy``."""
    n = a.dim
    piv = set((derived_subalgebra(a) if der is None else der).pivots)
    central = Subspace.zero(n) if central is None else central
    rows = central.integer_rows()
    held = {i for u in rows for i in u}
    _, touching = integral_table({(i, j): w for (i, j), w in a.bracket.items() if i in held or j in held})
    if touching:
        adj, claimed = _adjoint(n, touching), set(central.pivots)
        for p, u in zip(central.pivots, rows):
            out: dict[int, dict] = {}
            for i, x in u.items():
                for j, w in adj[i].items():
                    if j > p or j not in claimed:
                        vec_axpy(out.setdefault(j, {}), x, w)
            if any(out.values()):
                raise NotCentral("the subspace claimed central is not central")
    comp = central.complement_coords()
    pos = {c: s for s, c in enumerate(comp)}
    ads: list[dict] = [{} for _ in comp]
    for (i, j), w in a.bracket.items():
        if i in pos and j in pos:
            ad_i, ad_j = ads[pos[i]], ads[pos[j]]
            for k, x in w.items():
                if k in piv:
                    ad_i[j * n + k] = x
                    ad_j[i * n + k] = -x
    ker = relations(ads)
    if not (central.dim and ker.dim):
        return central if central.dim else ker
    lifted = [{comp[s]: x for s, x in r.items()} for r in ker.integer_rows()]
    return Subspace.from_vectors(n, central.integer_rows() + lifted)


def reference_document_to_algebra(doc) -> tuple[LieAlgebra, dict]:
    """document_to_algebra as it was: every key read by int(), range- and repeat-checked,
    zeros kept so a repeat is caught, the ASCII check after each vector, then LieAlgebra."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    _reject_unknown_keys(doc, ("dim", "labels", "brackets", "meta"), "document")
    dim = doc.get("dim")
    if not _is_int(dim) or dim < 0:
        raise DocumentError("dim must be a nonnegative integer")
    labels = doc.get("labels")
    if not isinstance(labels, list) or len(labels) != dim or not all(isinstance(s, str) for s in labels):
        raise DocumentError("labels must be a list of dim strings")
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise DocumentError("brackets must be a list")
    table = {}
    for entry in brackets:
        if not isinstance(entry, dict) or not {"i", "j", "v"} <= set(entry):
            raise DocumentError("each bracket needs i, j and v")
        _reject_unknown_keys(entry, ("i", "j", "v"), "bracket")
        i, j, v = entry["i"], entry["j"], entry["v"]
        if not (_is_int(i) and _is_int(j) and 0 <= i < j < dim):
            raise DocumentError(f"bracket pair ({i},{j}) violates 0 <= i < j < dim")
        if (i, j) in table:
            raise DocumentError(f"duplicate bracket pair ({i},{j})")
        if not isinstance(v, dict):
            raise DocumentError("bracket value must be an object")
        vec = table[(i, j)] = {}
        for k_str, x_str in v.items():
            try:
                k = int(k_str)
            except (TypeError, ValueError) as e:
                raise DocumentError(f"bad coordinate key {k_str!r}") from e
            if not 0 <= k < dim:
                raise DocumentError(f"coordinate {k} outside dimension {dim}")
            if k in vec:
                raise DocumentError(f"coordinate {k} given twice in bracket ({i},{j})")
            vec[k] = parse_rational(x_str)
        for k_str, k in zip(v, vec):
            if k_str != str(k):
                raise DocumentError(f"bad coordinate key {k_str!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise DocumentError("meta must be an object")
    for key in ("d", "defect", "t"):
        if key in meta and not (_is_int(meta[key]) and meta[key] >= 0):
            raise DocumentError(f"meta {key} must be a nonnegative integer")
    return LieAlgebra(dim, labels, table), meta


def reference_unique_keys(pairs: list) -> dict:
    """_unique_keys as it was: a Counter over every object's keys."""
    for key, n in Counter(k for k, _ in pairs).items():
        if n > 1:
            raise DocumentError(f"key {key!r} given twice in one JSON object")
    return dict(pairs)


class NotGeneralizedHeisenberg(ValueError):
    pass


def classify_by_multiplier(a: LieAlgebra):
    """Defect certified by (d, dim M(L)): 0, 1, 2, or "other"."""
    ctx = Analysis.of(a)
    # L² ⊆ Z(L) at class 2, so Z(L) = L² iff the dimensions agree.
    if ctx.center.dim != ctx.r:
        raise NotGeneralizedHeisenberg("input is not a generalized Heisenberg algebra")
    d = ctx.n
    m = dimensions(ctx.k)["m_L"]
    base = d * (d - 1) * (d + 1) // 3
    if m == (d ** 3 - d) // 3:
        return 0
    if m == base - d + 1:
        return 1
    if m == base - 2 * d + 2:
        return 2
    return "other"


def write_document(path: str, a: LieAlgebra, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(algebra_to_document(a, meta)))
