"""Test-only instances and ledger reads that nothing in the engine calls.

``random_class2`` draws the Z(L) ⊋ L² algebras of the oracle concordance checks;
``is_expected_mismatch`` reads the closed-form ledger by (key, defect, variant, t).
"""

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
