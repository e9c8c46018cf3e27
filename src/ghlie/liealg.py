"""Finite-dimensional Lie algebras over Q as sparse structure-constant tables.

A LieAlgebra stores only the brackets [b_i, b_j] for i < j; antisymmetry is
implicit.  Constructors cover the families used throughout: abelian algebras,
Heisenberg algebras H(m), and the d-generator class-2 algebras obtained from
the free class-2 algebra by killing a subspace of wedge coordinates, including
the generalized Heisenberg family (derived subalgebra = center).

Basis contract for class-2 constructors: the first dim(L/L²) coordinates are
generators, the remaining ones a basis of L².  This makes the projection onto
the abelianization a coordinate truncation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import lcm
from typing import Iterator

from .exactla import Subspace, Vec, _insert, _ratio, _rref, invert, relations, vec, vec_axpy


class CenterViolation(ValueError):
    """The requested relation subspace leaves a generator combination central."""


class NotAnIdealError(ValueError):
    """Quotient requested by a subspace that is not an ideal."""


class ClassTwoRequired(ValueError):
    """Operation defined only for nilpotent algebras of class at most two."""


class JacobiViolation(ClassTwoRequired):
    """The bracket table is not a Lie algebra: the Jacobi identity fails."""

    def __init__(self, triples):
        super().__init__(f"Jacobi identity fails on triples {triples[:5]}")
        self.triples = triples


class NotCentral(ValueError):
    """A subspace claimed central brackets nontrivially with the algebra."""


class LieAlgebra:
    """Basis labels plus the sparse bracket table {(i, j) i<j: Vec}, coerced by ``vec``.

    ``_normal`` skips the checks for a table built in normal form: by
    ``class2_from_relations``, ``quotient``, ``direct_sum``, the rebase's integer
    copy, ``hopf.cover_construct``, ``hopf.verify_cover``'s two scaled copies and
    ``docio.document_to_algebra``, which makes its own checks.
    """

    __slots__ = ("dim", "labels", "bracket")

    def __init__(self, dim: int, labels, bracket):
        self.dim = dim
        self.labels = tuple(labels)
        if len(self.labels) != dim:
            raise ValueError("label count does not match dimension")
        table = {}
        for (i, j), v in bracket.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bracket key ({i},{j}) is not an ordered pair below {dim}")
            v = vec(v)
            if any(not 0 <= k < dim for k in v):
                raise ValueError("bracket value has a coordinate outside the algebra")
            if v:
                table[(i, j)] = v
        self.bracket = table

    @classmethod
    def _normal(cls, dim: int, labels, bracket: dict) -> "LieAlgebra":
        """The algebra of a table in normal form, stored without a check: keys i < j < dim,
        values nonzero ints or non-integral Fractions at coordinates below dim, none empty."""
        a = object.__new__(cls)
        a.dim, a.labels, a.bracket = dim, tuple(labels), bracket
        return a

    def pair(self, i: int, j: int) -> Vec:
        """[b_i, b_j] for arbitrary index order."""
        if i == j:
            return {}
        if i < j:
            return self.bracket.get((i, j), {})
        v = self.bracket.get((j, i))
        return {k: -x for k, x in v.items()} if v else {}

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.bracket == other.bracket
        )

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.bracket)})"


def bracket_vectors(a: LieAlgebra, u: Vec, v: Vec) -> Vec:
    """[u, v] by bilinear extension of the basis table."""
    for w in (u, v):
        if any(not 0 <= k < a.dim for k in w):
            raise ValueError("vector coordinate outside the algebra")
    out = {}
    for i, x in u.items():
        for j, y in v.items():
            if i == j:
                continue
            vec_axpy(out, x * y, a.pair(i, j))
    return out


def integral_table(bracket: dict[tuple[int, int], Vec]) -> tuple[int, dict[tuple[int, int], Vec]]:
    """(c, c·bracket) for c the lcm of the entries' denominators, the table itself if c = 1.
    x ↦ c·x is an isomorphism from the scaled algebra onto the given one."""
    c = lcm(*{x.denominator for w in bracket.values() for x in w.values()})
    if c == 1:
        return 1, bracket
    return c, {p: {k: x.numerator * (c // x.denominator) for k, x in w.items()} for p, w in bracket.items()}


def _adjoint(dim: int, bracket: dict[tuple[int, int], Vec]) -> list[dict[int, Vec]]:
    """adj[i][j] = [e_i, e_j] for the brackets {(i, j): [e_i, e_j]} given, in both orders."""
    adj: list[dict[int, Vec]] = [{} for _ in range(dim)]
    for (i, j), w in bracket.items():
        adj[i][j], adj[j][i] = w, {k: -x for k, x in w.items()}
    return adj


def _ad_basis(adj: list[dict[int, Vec]], vectors) -> Iterator[Vec]:
    """The nonzero [u, e_j] for u in vectors, read from u's support and the adjoint index."""
    for u in vectors:
        out: dict[int, Vec] = {}
        for i, x in u.items():
            for j, w in adj[i].items():
                vec_axpy(out.setdefault(j, {}), x, w)
        yield from (w for w in out.values() if w)


def jacobi_check(a: LieAlgebra) -> list[tuple[int, int, int]]:
    """Triples i<j<k violating the Jacobi identity (empty list = valid table)."""
    bad = []
    adj = _adjoint(a.dim, a.bracket)
    for i, j, k in itertools.combinations(range(a.dim), 3):
        acc: Vec = {}
        for p, q, r in ((i, j, k), (k, i, j), (j, k, i)):
            for m, x in adj[p].get(q, {}).items():
                vec_axpy(acc, x, adj[m].get(r, {}))
        if acc:
            bad.append((i, j, k))
    return bad


def derived_subalgebra(a: LieAlgebra) -> Subspace:
    return Subspace.from_vectors(a.dim, list(a.bracket.values()))


def center(a: LieAlgebra, der: Subspace | None = None, central: Subspace | None = None) -> Subspace:
    """Z(L); der is L² if known, central a subspace claimed central (NotCentral if it is not).

    The claim is checked in integers (the brackets it touches scaled by ``integral_table``)
    on full vectors, as central need not lie in L², and on half its pivot block: for its
    RREF rows u_p, [u_p, e_c] for every non-pivot c and [u_p, e_q] for pivots q > p, as
    [u_p, u_p] = 0 gives [u_p, e_p] = 0 and [u_q, u_p] = -[u_p, u_q] gives [u_q, e_p] = 0.
    Each touched bracket is packed into one int, entry k in bits [kB, (k+1)B) (Kronecker
    substitution), so [u_p, e_j] = Σᵢ u_p[i]·[e_i, e_j] is one multiply-add per i.  With M
    the largest |entry| of the touched table and U the largest Σ|u_p[i]|, every slot of the
    sum is below M·U < 2^(B-2) in absolute value for B = (M·U).bit_length() + 2, so the top
    nonzero slot outweighs all the slots below it: the sum is zero iff every slot is.
    Then Z(L) = central + {v : [v, b_c] = 0 for all c}, v and c over central's complement
    coordinates; [v, b_c] lies in L², fixed by its entries at L²'s pivots: only those are read.
    """
    n = a.dim
    piv = set((derived_subalgebra(a) if der is None else der).pivots)
    central = Subspace.zero(n) if central is None else central
    rows = central.integer_rows()
    held = {i for u in rows for i in u}
    _, touching = integral_table({(i, j): w for (i, j), w in a.bracket.items() if i in held or j in held})
    if touching:  # else every [u, e_j] is zero
        top = max(max(map(abs, w.values())) for w in touching.values())
        b = (top * max(sum(map(abs, u.values())) for u in rows)).bit_length() + 2
        packed: list[dict[int, int]] = [{} for _ in range(n)]
        for (i, j), w in touching.items():
            s = sum(x << k * b for k, x in w.items())
            packed[i][j], packed[j][i] = s, -s
        claimed = set(central.pivots)
        for p, u in zip(central.pivots, rows):
            out: dict[int, int] = {}
            for i, x in u.items():
                for j, s in packed[i].items():
                    if j > p or j not in claimed:
                        out[j] = out.get(j, 0) + x * s
            if any(out.values()):
                raise NotCentral("the subspace claimed central is not central")
    comp = central.complement_coords()
    pos = {c: s for s, c in enumerate(comp)}
    ads: list[Vec] = [{} for _ in comp]
    for (i, j), w in a.bracket.items():
        if i in pos and j in pos:
            ad_i, ad_j = ads[pos[i]], ads[pos[j]]
            for k, x in w.items():
                # [e_i, e_j] = w puts x at (j, k) in e_i's ad vector and -x at (i, k) in
                # e_j's; no other bracket writes either entry.
                if k in piv:
                    ad_i[j * n + k] = x
                    ad_j[i * n + k] = -x
    ker = relations(ads)
    if not (central.dim and ker.dim):  # with central 0, comp is every coordinate
        return central if central.dim else ker
    lifted = [{comp[s]: x for s, x in r.items()} for r in ker.integer_rows()]
    return Subspace.from_vectors(n, central.integer_rows() + lifted)


def lower_central_series(a: LieAlgebra, der: Subspace | None = None) -> list[Subspace]:
    """[L, L², L³, ...] down to stabilization (last term zero iff nilpotent); der is L² if known."""
    series = [Subspace.full(a.dim), derived_subalgebra(a) if der is None else der]
    adj = _adjoint(a.dim, a.bracket)
    while series[-1].dim:
        nxt = Subspace.from_vectors(a.dim, list(_ad_basis(adj, series[-1].integer_rows())))
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def quotient(a: LieAlgebra, ideal: Subspace) -> LieAlgebra:
    """Quotient algebra L/ideal on the complement coordinates of the ideal.

    The table reads only the stored brackets of two complement coordinates.
    """
    if ideal.ambient_dim != a.dim:
        raise ValueError("ideal lives in the wrong ambient space")
    if not all(ideal.contains_vec(w) for w in _ad_basis(_adjoint(a.dim, a.bracket), ideal.integer_rows())):
        raise NotAnIdealError("subspace is not an ideal")
    comp = ideal.complement_coords()
    pos = dict(zip(comp, itertools.count()))
    table = {
        (pos[i], pos[j]): w
        for (i, j), v in sorted(a.bracket.items()) if i in pos and j in pos and (w := ideal.quotient_coords(v))
    }
    return LieAlgebra._normal(len(comp), [a.labels[c] for c in comp], table)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    table = {k: dict(v) for k, v in a.bracket.items()}
    off = a.dim
    for (i, j), v in b.bracket.items():
        table[(i + off, j + off)] = {k + off: x for k, x in v.items()}
    return LieAlgebra._normal(a.dim + b.dim, a.labels + b.labels, table)


def abelian(n: int) -> LieAlgebra:
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return LieAlgebra(n, tuple(f"a{i+1}" for i in range(n)), {})


def heisenberg(m: int) -> LieAlgebra:
    """H(m): dim 2m+1, [x_{2i-1}, x_{2i}] = z, one-dimensional center."""
    if m < 1:
        raise ValueError("m must be at least 1")
    labels = tuple(f"x{i+1}" for i in range(2 * m)) + ("z",)
    table = {(2 * i, 2 * i + 1): {2 * m: 1} for i in range(m)}
    return LieAlgebra(2 * m + 1, labels, table)


def wedge_pairs(d: int) -> list[tuple[int, int]]:
    """Coordinate order of the wedge space Λ²(Q^d): pairs (i, j), i<j, lex."""
    return list(itertools.combinations(range(d), 2))


@dataclass(frozen=True)
class GhSpec:
    """Defining data of a generalized Heisenberg instance.

    relation_subspace lives in the wedge coordinate space of wedge_pairs(d);
    when absent, a subspace of dimension d(d-1)/2 - rank is drawn from seed.
    """

    d: int
    rank: int
    relation_subspace: Subspace | None = None
    seed: int | None = None

    def validate(self) -> None:
        max_rank = self.d * (self.d - 1) // 2
        if self.d < 3:
            raise ValueError("need at least 3 generators")
        if not 1 <= self.rank <= max_rank:
            raise ValueError(f"rank must be in 1..{max_rank}")
        if self.relation_subspace is not None:
            if self.relation_subspace.ambient_dim != max_rank:
                raise ValueError("relation subspace has wrong ambient dimension")
            if self.relation_subspace.dim != max_rank - self.rank:
                raise ValueError("relation subspace dimension does not match rank")


def class2_from_relations(d: int, relations: Subspace, labels=None) -> LieAlgebra:
    """Quotient of the free class-2 algebra on d generators by a wedge subspace.

    No center condition is imposed; the result is class <= 2 with
    dim L² = d(d-1)/2 - dim relations and the standard basis contract.
    Derived basis vector y_s is the image of the s-th complement coordinate
    of relations; this is the one class-2 normal form (see rebase_class2).
    """
    pairs = wedge_pairs(d)
    if relations.ambient_dim != len(pairs):
        raise ValueError("relations have wrong ambient dimension")
    r = relations.ambient_dim - relations.dim
    if labels is None:
        labels = [f"x{i+1}" for i in range(d)] + [f"y{s+1}" for s in range(r)]
    # [x_i, x_j] is its pair's image mod relations, D times which unit_images holds.
    den, images = relations.unit_images()
    table = {ij: {d + s: x if den == 1 else _ratio(x, den) for s, x in v.items()}
             for ij, v in zip(pairs, images) if v}
    return LieAlgebra._normal(d + r, labels, table)


_RETRY_BUDGET = 64


def random_relation_subspace(d: int, rank: int, rng: random.Random) -> Subspace:
    """Seeded wedge subspace of dimension d(d-1)/2 - rank (small-int entries).

    Raises CenterViolation when no draw within the retry budget has full rank.
    """
    n = d * (d - 1) // 2
    target = n - rank
    for _ in range(_RETRY_BUDGET):
        rows = [
            {c: rng.randint(-3, 3) for c in range(n)}
            for _ in range(target)
        ]
        sub = Subspace.from_vectors(n, [{c: x for c, x in row.items() if x} for row in rows])
        if sub.dim == target:
            return sub
    raise CenterViolation(
        f"no relation subspace of dimension {target} found for d={d} within {_RETRY_BUDGET} draws"
    )


def gh_construct(spec: GhSpec) -> LieAlgebra:
    """Generalized Heisenberg algebra with Z(L) = L² verified.

    With an explicit relation subspace a violation raises immediately; with a
    seed the constructor retries with fresh randomness up to a fixed budget.
    """
    spec.validate()
    # L² of a class2_from_relations table is its y block, the unit rows past the generators.
    der = Subspace(spec.d + spec.rank, [{k: 1} for k in range(spec.d, spec.d + spec.rank)])
    rng = random.Random(spec.seed)
    explicit = spec.relation_subspace is not None
    for _ in range(1 if explicit else _RETRY_BUDGET):
        sub = spec.relation_subspace if explicit else random_relation_subspace(spec.d, spec.rank, rng)
        a = class2_from_relations(spec.d, sub)
        if center(a, der, der) == der:
            return a
    if explicit:
        raise CenterViolation(f"relations leave extra central elements for d={spec.d}, rank={spec.rank}")
    raise CenterViolation(
        f"no generalized Heisenberg instance found for d={spec.d}, rank={spec.rank} "
        f"within {_RETRY_BUDGET} draws"
    )


def change_of_basis(a: LieAlgebra, new_basis) -> LieAlgebra:
    """Structure constants in the basis b'_i = row i of new_basis (an invertible exactla.Matrix)."""
    rows = new_basis.rows
    if len(rows) != a.dim or new_basis.cols != a.dim:
        raise ValueError("basis matrix must be square of the algebra dimension")
    # Old coordinates w have new coordinates Σ_c w_c · (row c of the inverse).
    inv_rows = invert(new_basis).rows
    table = {}
    for i, j in itertools.combinations(range(a.dim), 2):
        coords: Vec = {}
        for c, x in bracket_vectors(a, rows[i], rows[j]).items():
            vec_axpy(coords, x, inv_rows[c])
        if coords:
            table[(i, j)] = coords
    return LieAlgebra(a.dim, a.labels, table)


def rebase_class2(a: LieAlgebra) -> tuple[LieAlgebra, Subspace, Subspace]:
    """Certify class <= 2 and rewrite a in the basis contract (generators, then L²).

    It reads a's table scaled to integers by ``integral_table``, which changes no span,
    relation, zero test or Jacobi triple.  S is the span of the brackets [e_c, e_c'] of the
    coordinates taken: first those no bracket value holds (never pivots of L²; on a table in
    the normal form they give every bracket, as one RREF), then the others from the last
    down, until every non-pivot coordinate of S is taken.  An RREF's pivots are its leftmost
    independent columns, so in a dense basis the last n coordinates give S: C(n, 2) brackets,
    not C(dim, 2).  Central S (center's check) is L², and class <= 2: with C the non-pivots
    of S, L = span(e_C) ⊕ S and every [e_c, e_c'] lies in S, so [e_i, e_j] = [g_i, g_j] ∈ S
    for g_i the span(e_C) part of e_i.  A class-2 table always passes.  Central L² makes
    every [[e_i, e_j], e_k] zero, so a table failing Jacobi fails the check, and only a
    rejected table gets the O(dim³) Jacobi scan, on the integer table: JacobiViolation if
    it finds a triple, ClassTwoRequired otherwise.

    Returns the rebased algebra, its grade-2 relation subspace rel2 and Z(L) in a's own
    coordinates: L² plus a kernel over the generator coordinates, the complement
    coordinates of L².  rel2 is the relations among the generator pairs' brackets,
    read at the pivot coordinates of L².  The rebased algebra is
    class2_from_relations(n, rel2), so its derived basis vector y_s is the bracket of
    rel2's s-th complement coordinate and the rebase is idempotent.  a's labels are
    permuted with the coordinates: generators, then the pivots of L².
    """
    n = a.dim
    den, table = integral_table(a.bracket)
    a = a if den == 1 else LieAlgebra._normal(n, a.labels, table)
    held = set().union(*a.bracket.values())
    taken = [c for c in range(n) if c not in held]
    is_taken = set(taken)
    found = dict(_rref([w for (i, j), w in a.bracket.items() if i in is_taken and j in is_taken], n))
    for c in sorted(held, reverse=True):
        if len(is_taken | found.keys()) == n:  # every non-pivot of S is taken
            break
        for b in taken:
            if w := a.bracket.get((c, b) if c < b else (b, c)):
                _insert(found, w)
        taken.append(c)
        is_taken.add(c)
    der = Subspace(n, [dict(sorted(r.items())) for _, r in sorted(found.items())])
    try:
        z = center(a, der, der)
    except NotCentral:
        bad = jacobi_check(a)
        if bad:
            raise JacobiViolation(bad) from None
        raise ClassTwoRequired("input must be nilpotent of class at most 2") from None
    gens = der.complement_coords()
    pairs = wedge_pairs(len(gens))
    # A vector of L² is fixed by its entries at the pivots of L²'s RREF basis.
    piv = set(der.pivots)
    rel2 = relations([{p: x for p, x in a.pair(gens[i], gens[j]).items() if p in piv} for i, j in pairs])
    labels = [a.labels[g] for g in gens] + [a.labels[p] for p in der.pivots]
    return class2_from_relations(len(gens), rel2, labels), rel2, z
