"""Sweeps over the (d, defect, t, seed) grid with oracle cross-checks.

A sweep row is the DimReport of one instance; the gate distinguishes
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
    include_suspect: bool = True
    with_oracle: bool = True
    max_cases: int = 5000
    jobs: int | None = None


def run_case(case: FixtureCase, include_suspect: bool = True, with_oracle: bool = True) -> dict:
    a = case.build()
    rep = analyze(
        a, d=case.d, with_oracle=with_oracle, include_suspect=include_suspect,
        provenance=case.name,
    )
    row = rep.to_dict()
    row["seed"] = case.seed
    row["gh"] = case.is_gh_cell
    return row


def _runner(args) -> dict:
    case, include_suspect, with_oracle = args
    return run_case(case, include_suspect, with_oracle)


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
    work = [(c, cfg.include_suspect, cfg.with_oracle) for c in cases]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_runner, work, chunksize=4))
    else:
        rows = [_runner(w) for w in work]
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
