"""Sweeps over the (d, defect, t, seed) grid with oracle cross-checks.

A sweep row is the DimReport of one instance, with the oracle run and every
printed display compared, the ledgered ones included; ker β = K is checked
only on rows with d + t <= 6 generators, a cut that is the sweep's own
(analyze with the oracle checks it on every input).  The gate distinguishes
unexpected mismatches (formula-vs-oracle disagreement, or a sound printed form
failing) from the ledgered expected mismatches (the printed displays the
computation refutes).  Identical configuration and seeds produce
byte-identical report files, whatever the worker count; rows run in a
process pool of at most min(jobs, cases, cores) workers, where jobs
defaults to the core count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .closed_forms import EXPECTED_MISMATCHES
from .fixtures import FixtureCase, grid_cases
from .report import analyze


@dataclass(frozen=True)
class SweepConfig:
    d_values: tuple = (3, 4, 5, 6)
    defects: tuple = (1, 2, 3)
    t_values: tuple = (0, 1, 2)
    seeds: int = 5
    max_cases: int = 5000
    jobs: int | None = None


def run_case(case: FixtureCase) -> dict:
    # ker β only up to d + t = 6, as perfbench/reference.json pins the rows; ROADMAP item 2 drops the cut.
    row = analyze(case.build(), d=case.d, with_oracle=True, check_ker_beta=case.d + case.t <= 6,
                  provenance=case.name).to_dict()
    row["seed"] = case.seed
    row["gh"] = case.is_gh_cell
    return row


def _runner(case: FixtureCase) -> dict:
    # Looks run_case up when called, so a pool pickles this function by name
    # even where run_case itself has been replaced by a wrapper.
    return run_case(case)


def run_sweep(cfg: SweepConfig) -> dict:
    if cfg.seeds < 0:
        raise ValueError(f"the number of seeds must be nonnegative, got {cfg.seeds}")
    for field in ("d_values", "defects", "t_values"):
        values = list(getattr(cfg, field))
        if len(set(values)) != len(values):
            raise ValueError(f"{field} repeats a value: {values}")
        if any(v < 0 for v in values):
            raise ValueError(f"{field} must be nonnegative, got {values}")
    cases = grid_cases(cfg.d_values, cfg.defects, cfg.t_values, cfg.seeds)
    if not cases:
        raise ValueError("the sweep grid has no cases")
    if len(cases) > cfg.max_cases:
        raise ValueError(f"{len(cases)} cases exceed the configured cap {cfg.max_cases}")
    jobs = cfg.jobs if cfg.jobs is not None else os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    # The pool starts all its workers at once; more than there are cases or
    # cores only costs forks.
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_runner, cases, chunksize=4))
    else:
        rows = [run_case(c) for c in cases]
    expected = [m for row in rows for m in row["expected_mismatches"]]
    unexpected = [m for row in rows for m in row["unexpected_mismatches"]]
    # The worker count is left out so that it cannot change the report file.
    config = asdict(cfg)
    del config["jobs"]
    report = {
        "config": config,
        "rows": rows,
        "expected_mismatch_ledger": [dict(e) for e in EXPECTED_MISMATCHES],
        "summary": {
            "cases": len(rows),
            "rows_matching": sum(1 for r in rows if r["match"]),
            "expected_mismatches": len(expected),
            "unexpected_mismatches": len(unexpected),
        },
    }
    return report


def sweep_exit_code(report: dict) -> int:
    return 0 if report["summary"]["unexpected_mismatches"] == 0 else 5
