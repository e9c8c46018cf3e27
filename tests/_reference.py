"""Test-only instances and ledger reads that nothing in the engine calls.

``random_class2`` draws the Z(L) ⊋ L² algebras of the oracle concordance checks;
``is_expected_mismatch`` reads the closed-form ledger by (key, defect, variant, t);
``jacobi_cycle_generators`` is psi2_image's generator loop as it was before each
pair's bracket was read once.
"""

import itertools
import random

from ghlie.closed_forms import _suspect_reason
from ghlie.liealg import LieAlgebra, class2_from_relations, random_relation_subspace


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
