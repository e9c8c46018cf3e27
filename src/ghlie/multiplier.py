"""Schur multiplier machinery for class-2 nilpotent algebras.

The dimension count runs through the exact sequence

    0 -> ker b -> L² ⊗ L/L² -> M(L) -> M(L/L²) -> L² -> 0

with ker b spanned by the Jacobi-cycled elements

    [x,y]⊗z̄ + [z,x]⊗ȳ + [y,z]⊗x̄ ,

so that dim M(L) = n(n-1)/2 - dim L² + (dim L² · n - dim K) for n = dim L/L².
The spanning set is alternating and kills repeated arguments, hence triples of
distinct abelianization basis vectors suffice.  Coordinates of L² ⊗ L/L² are
lexicographic (derived-basis index, generator index); the Hopf-formula oracle
returns ker b in the same convention so subspace comparisons are literal.
Every dimension reads only rank K, so ``psi2_image`` keeps a basis of K and
builds K's canonical basis only when ``image`` is read.
``dimensions`` is the one home of this formula and of the four dimensions
derived from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .exactla import Subspace, Vec, basis
from .liealg import LieAlgebra, rebase_class2


@dataclass(frozen=True)
class Psi2Data:
    """Image K of the trilinear Jacobi-cycle map on the abelianization.

    n = dim L/L² and r = dim L²; the image lives in L² ⊗ L/L² of dimension r·n.
    rows are independent primitive integer rows spanning K, ``exactla.basis``
    of the Jacobi cycles.  They depend on the schedule, so two Psi2Data are
    equal when n, r and the canonical ``image`` are.
    """

    n: int
    r: int
    rows: list[dict] = field(repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def image(self) -> Subspace:
        """K's canonical basis, built on first read and kept."""
        return Subspace.from_vectors(self.r * self.n, self.rows)

    def __eq__(self, other):
        return isinstance(other, Psi2Data) and (self.n, self.r, self.image) == (other.n, other.r, other.image)


def psi2_image(a: LieAlgebra, rel2: Subspace | None = None) -> Psi2Data:
    """Span of [x,y]⊗z̄ + [z,x]⊗ȳ + [y,z]⊗x̄ over basis triples of L/L².

    rel2 is the relation subspace rebase_class2 returns with a rebased;
    without it a is rebased here, which also rejects class > 2.  K lives in
    the rebased algebra's coordinates, the normal form class2_from_relations
    builds, so K's coordinates depend on that choice of basis of L² while its
    dimension does not.  The coordinates are read off the basis contract:
    generator g is coordinate g and derived basis vector s is coordinate n + s.
    """
    if rel2 is None:
        a, rel2, _ = rebase_class2(a)
    r = rel2.ambient_dim - rel2.dim
    n = a.dim - r
    # [x_i, x_j] ⊗ x̄_g sits at (c - n)·n + g for each derived entry c: read once per pair
    terms = {ij: [((c - n) * n, x) for c, x in v.items()] for ij, v in a.bracket.items()}
    gens = []
    for g1, g2, g3 in itertools.combinations(range(n), 3):
        # [x1,x2]⊗x̄3 - [x1,x3]⊗x̄2 + [x2,x3]⊗x̄1: the three terms sit at distinct
        # generator indices, so they never meet
        v: Vec = {off + g3: x for off, x in terms.get((g1, g2), ())}
        for off, x in terms.get((g1, g3), ()):
            v[off + g2] = -x
        for off, x in terms.get((g2, g3), ()):
            v[off + g1] = x
        if v:
            gens.append(v)
    return Psi2Data(n, r, basis(gens))


def square_dim(n: int) -> int:
    """dim of the symmetric square of an n-dimensional abelian algebra."""
    return n * (n + 1) // 2


def dimensions(k: Psi2Data) -> dict[str, int]:
    """m_L, wedge, tensor, j2 and psi2_rank of the algebra whose K is k.

    L∧L adds L² to M(L); L⊗L adds the symmetric square of L/L² to L∧L; J₂ is
    the kernel of the commutator map L⊗L -> L², which is onto L².
    """
    n, r = k.n, k.r
    m_l = n * (n - 1) // 2 - r + (r * n - k.rank)
    return {
        "m_L": m_l,
        "wedge": m_l + r,
        "tensor": m_l + r + square_dim(n),
        "j2": m_l + square_dim(n),
        "psi2_rank": k.rank,
    }
