"""Names, units and meaning of every metric the benchmark reports.

END_TO_END metrics are measured with tracing off.  Every time the benchmark
reports is in reference seconds (see calibrate.py), so that runs made while
the machine runs at different speeds can be compared.  LAYER metrics come from a
separate traced run; each names the end-to-end metric and workload it should
move, written down before any optimisation so that a later change can be
checked against it.  Layer times are inclusive span time unless the name ends
in ``self_s`` (span time minus child spans).  On grid-pool they are summed over
both workers.  A layer that does not run on a workload reads 0 there.
"""

from __future__ import annotations

from tracing import Tracer

# name, unit, what it is
END_TO_END = (
    ("wall_s", "s", "time of one pass over the workload's inputs, median over passes"),
    ("setup_s", "s", "import ghlie and build the workload's inputs, median over set-ups"),
    ("peak_rss_mib", "MiB", "peak resident memory of the run, plus the largest pool worker"),
)

# Reported alongside, where the workload defines them; not part of the result line.
EXTRA = (
    ("wall_raw_s", "s", "all", "wall_s before scaling to reference seconds"),
    ("speed_scale", "ratio", "all", "reference seconds per second of this run (calibrate.scale)"),
    ("case_p50_s", "s", "grid-serial", "median over the 207 cases of each case's median time"),
    ("case_p95_s", "s", "grid-serial", "nearest-rank p95 of the same, only with >= 10 samples beyond"),
    ("largest_case_s", "s", "oracle-large, cover-rational", "median time of the largest instance (d=10 / the d=5 defect-1 document)"),
    ("failed_frac", "ratio", "all", "failed cases / attempted cases, all passes"),
)

# name, unit, end-to-end metric it should move, workload
LAYER = (
    ("exactla.calls", "count", "wall_s", "grid-serial"),
    ("exactla.rows_in", "count", "wall_s", "grid-serial"),
    ("exactla.reduce_calls", "count", "wall_s", "grid-serial"),
    ("exactla.self_s", "s", "wall_s, largest_case_s", "oracle-large"),
    ("exactla.max_coeff_bits", "bits", "largest_case_s", "cover-rational"),
    ("liealg.derived_calls", "count", "wall_s", "grid-serial"),
    ("liealg.rebase_s", "s", "wall_s", "cover-rational"),
    ("liealg.self_s", "s", "wall_s", "cover-rational"),
    ("fixtures.build_s", "s", "wall_s", "grid-serial"),
    ("fixtures.draws", "count", "wall_s", "grid-serial"),
    ("multiplier.psi2_s", "s", "wall_s", "grid-serial"),
    ("hopf.presentation_s", "s", "largest_case_s", "oracle-large"),
    ("hopf.ker_beta_s", "s", "largest_case_s", "oracle-large"),
    ("hopf.exterior_center_s", "s", "wall_s", "grid-serial"),
    ("hopf.presentation_calls", "count", "wall_s", "cover-rational"),
    ("hopf.cover_s", "s", "wall_s", "cover-rational"),
    ("hopf.verify_cover_s", "s", "wall_s", "cover-rational"),
    ("report.self_s", "s", "none: stays near 0", "all"),
    ("docio.read_s", "s", "wall_s", "cover-rational"),
    ("docio.write_s", "s", "wall_s", "cover-rational"),
    ("docio.bytes_in", "B", "wall_s", "cover-rational"),
    ("docio.bytes_out", "B", "wall_s", "cover-rational"),
    ("sweep.worker_busy_s", "s", "wall_s", "grid-pool"),
    ("sweep.pool_idle_frac", "ratio", "wall_s", "grid-pool"),
    ("trace.overhead_frac", "ratio", "none: cost of tracing", "all"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + EXTRA + LAYER}


def layer_values(t: Tracer, wall: float, jobs: int) -> dict:
    """Layer metrics of one traced pass (all but trace.overhead_frac)."""
    busy = t.total["sweep.run_case"]
    return {
        "exactla.calls": t.calls["exactla._rref_rows"],
        "exactla.rows_in": t.counts["exactla.rows_in"],
        "exactla.reduce_calls": t.calls["exactla.Subspace.reduce"],
        "exactla.self_s": t.layer_self("exactla"),
        "exactla.max_coeff_bits": t.maxima.get("exactla.max_coeff_bits", 0),
        "liealg.derived_calls": t.calls["liealg.derived_subalgebra"],
        "liealg.rebase_s": t.total["liealg.rebase_class2"],
        "liealg.self_s": t.layer_self("liealg"),
        "fixtures.build_s": t.total["fixtures.FixtureCase.build"],
        "fixtures.draws": t.calls["liealg.random_relation_subspace"],
        "multiplier.psi2_s": t.total["multiplier.psi2_image"],
        "hopf.presentation_s": t.total["hopf.presentation_from_class2"],
        "hopf.ker_beta_s": t.total["hopf.ker_beta"],
        "hopf.exterior_center_s": t.total["hopf.exterior_center"],
        "hopf.presentation_calls": t.calls["hopf.presentation_from_class2"],
        "hopf.cover_s": t.total["hopf.cover_construct"],
        "hopf.verify_cover_s": t.total["hopf.verify_cover"],
        "report.self_s": t.layer_self("report"),
        "docio.read_s": t.total["docio.loads"] + t.total["docio.document_to_algebra"],
        "docio.write_s": t.total["docio.algebra_to_document"] + t.total["docio.dumps"],
        "docio.bytes_in": t.counts["docio.bytes_in"],
        "docio.bytes_out": t.counts["docio.bytes_out"],
        "sweep.worker_busy_s": busy,
        "sweep.pool_idle_frac": 1 - busy / (jobs * wall) if jobs > 1 else 0.0,
    }
