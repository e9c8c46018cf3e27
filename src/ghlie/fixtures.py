"""Canonical and seeded instances for sweeps and acceptance runs.

Canonical relation choices per (d, defect):
  defect 1            kill x1∧x2
  defect 2, d >= 4    kill x1∧x2, x3∧x4
  defect 2, d = 3     kill x1∧x2, x1∧x3
  defect 3 generic    kill x1∧x2, x3∧x4, x1∧x3     (d >= 4)
  defect 3 deficient  kill x1∧x2, x2∧x3, x1∧x3     (d >= 4, vanishing triangle)

The d=3 defect-2 instance is special: with dim L² = 1 the bracket is a single
alternating form on three generators, necessarily degenerate, so no algebra
with Z = L² exists at that cell; the canonical instance (≅ H(1)⊕A(1)) and its
seeded companions are built without the center condition and tagged gh=False.
All other cells produce genuine generalized Heisenberg algebras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactla import Subspace
from .liealg import (
    GhSpec,
    LieAlgebra,
    abelian,
    class2_from_relations,
    direct_sum,
    gh_construct,
    random_relation_subspace,
    wedge_pairs,
)


def canonical_killed_pairs(d: int, defect: int, variant: str = "generic") -> list[tuple[int, int]]:
    if variant == "deficient" and defect != 3:
        raise ValueError("the deficient branch exists only at defect 3")
    if defect == 0:
        return []
    if defect == 1:
        return [(0, 1)]
    if defect == 2:
        return [(0, 1), (2, 3)] if d >= 4 else [(0, 1), (0, 2)]
    if defect == 3:
        if d < 4:
            raise ValueError("defect 3 needs at least 4 generators")
        if variant == "deficient":
            return [(0, 1), (1, 2), (0, 2)]
        return [(0, 1), (2, 3), (0, 2)]
    raise ValueError("defect must be 1, 2 or 3")


def relations_from_pairs(d: int, killed: list[tuple[int, int]]) -> Subspace:
    pairs = wedge_pairs(d)
    idx = {p: w for w, p in enumerate(pairs)}
    return Subspace.from_vectors(len(pairs), [{idx[p]: 1} for p in killed])


def canonical_gh(d: int, defect: int, variant: str = "generic") -> LieAlgebra:
    """Deterministic representative at (d, defect); center check waived at (3, 2)."""
    rel = relations_from_pairs(d, canonical_killed_pairs(d, defect, variant))
    rank = d * (d - 1) // 2 - defect
    if d == 3 and defect == 2:
        return class2_from_relations(d, rel)
    return gh_construct(GhSpec(d=d, rank=rank, relation_subspace=rel))


def seeded_gh(d: int, defect: int, seed: int) -> LieAlgebra:
    """Seeded random instance at (d, defect); pseudo (no center check) at (3, 2)."""
    rank = d * (d - 1) // 2 - defect
    if d == 3 and defect == 2:
        # No retry needed: relations of dimension 3 - rank leave dim L² = rank.
        return class2_from_relations(d, random_relation_subspace(d, rank, random.Random(seed)))
    return gh_construct(GhSpec(d=d, rank=rank, seed=seed))


def with_abelian_part(a: LieAlgebra, t: int) -> LieAlgebra:
    return direct_sum(a, abelian(t)) if t else a


@dataclass(frozen=True)
class FixtureCase:
    d: int
    defect: int
    variant: str
    t: int
    seed: int | None  # None = canonical

    @property
    def name(self) -> str:
        tag = "canonical" if self.seed is None else f"seed{self.seed}"
        var = f"-{self.variant}" if self.defect == 3 else ""
        suffix = f"+A({self.t})" if self.t else ""
        return f"d{self.d}-defect{self.defect}{var}{suffix}-{tag}"

    def build(self) -> LieAlgebra:
        core = (
            canonical_gh(self.d, self.defect, self.variant)
            if self.seed is None
            else seeded_gh(self.d, self.defect, self.seed)
        )
        return with_abelian_part(core, self.t)

    @property
    def is_gh_cell(self) -> bool:
        return not (self.d == 3 and self.defect == 2)


def defect_variants(d: int, defect: int) -> list[str]:
    return ["generic", "deficient"] if defect == 3 and d >= 4 else ["generic"]


def grid_cases(
    d_values,
    defects,
    t_values,
    seeds: int,
) -> list[FixtureCase]:
    """Sweep grid; random draws are attached to the generic variant only
    (random relation subspaces realize the deficient rank with probability 0)."""
    cases = []
    for d in d_values:
        for defect in defects:
            if defect >= d * (d - 1) // 2:
                continue
            if defect == 3 and d < 4:
                continue
            for variant in defect_variants(d, defect):
                for t in t_values:
                    cases.append(FixtureCase(d, defect, variant, t, None))
                    if variant == "generic":
                        for s in range(seeds):
                            cases.append(FixtureCase(d, defect, variant, t, s))
    return cases
