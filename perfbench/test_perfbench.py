"""Tests for the benchmark's own code: statistics, spans, patching, metric lists.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ghlie.exactla  # noqa: E402
import ghlie.fixtures  # noqa: E402
import ghlie.hopf  # noqa: E402
import ghlie.liealg  # noqa: E402
import ghlie.report  # noqa: E402
import ghlie.sweep  # noqa: E402

import calibrate  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_percentile_nearest_rank():
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile(range(1, 101), 95) == 95
    assert stats.percentile(range(1, 101), 100) == 100
    assert stats.percentile([7.5], 95) == 7.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


def test_tail_needs_ten_samples_beyond():
    # 207 default-grid cases leave exactly 10 beyond p95; 199 leave 9.
    assert stats.beyond(207, 95) == 10 and stats.reportable(207, 95)
    assert stats.beyond(200, 95) == 10 and stats.reportable(200, 95)
    assert stats.beyond(199, 95) == 9 and not stats.reportable(199, 95)
    assert stats.reportable(20, 50) and not stats.reportable(19, 50)


def test_spread_is_interquartile_share_of_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / med)


def test_meter_scales_by_the_reference_loop():
    meter = calibrate.Meter()
    meter.after(0.05)
    assert meter.count >= 1 and meter.seconds >= calibrate.FRACTION * 0.05
    assert meter.scale() == pytest.approx(calibrate.REF_UNIT_S * meter.count / meter.seconds)


def test_helpers_answer_and_are_stopped():
    with calibrate.Helpers(2) as helpers:
        runs = helpers.run(0.01)
        procs = list(helpers._procs)
    assert len(runs) == 2 and all(count >= 1 and spent >= 0.01 for count, spent in runs)
    assert all(p.poll() is not None for p in procs)


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer(clock=_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    t.begin("a.outer")      # 0
    t.begin("b.inner")      # 1
    t.begin("b.leaf")       # 2
    t.end()                 # 3: leaf 1
    t.end()                 # 4: inner 3, self 2
    t.begin("b.inner")      # 5
    t.end()                 # 6: inner 1
    t.end()                 # 10: outer 10, children 4
    assert t.calls == {"a.outer": 1, "b.inner": 2, "b.leaf": 1}
    assert t.total["a.outer"] == 10 and t.self_time["a.outer"] == 6
    assert t.total["b.inner"] == 4 and t.self_time["b.inner"] == 3
    assert t.self_time["b.leaf"] == 1
    assert t.layer_self("b") == 4 and t.layer_self("a") == 6


def test_discount_leaves_bookkeeping_out_of_self_time():
    t = tracing.Tracer(clock=_clock([0, 10]))
    t.begin("report.analyze")
    t.discount(2.5)
    t.end()
    assert t.total["report.analyze"] == 10 and t.self_time["report.analyze"] == 7.5


def test_export_merge_sums_and_keeps_maxima():
    a, b = tracing.Tracer(clock=_clock([0, 2])), tracing.Tracer(clock=_clock([0, 3]))
    for t, bits in ((a, 5), (b, 9)):
        t.begin("exactla._rref_rows")
        t.end()
        t.add("exactla.rows_in", 4)
        t.peak("exactla.max_coeff_bits", bits)
    a.merge(b.export())
    assert a.calls["exactla._rref_rows"] == 2 and a.total["exactla._rref_rows"] == 5
    assert a.counts["exactla.rows_in"] == 8 and a.maxima["exactla.max_coeff_bits"] == 9


def _snapshot() -> dict:
    owners = [m for n, m in sys.modules.items() if n == "ghlie" or n.startswith("ghlie.")]
    owners += [ghlie.exactla.Subspace, ghlie.fixtures.FixtureCase]
    return {(repr(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_patches_reach_every_importer_and_are_restored():
    before = _snapshot()
    original = ghlie.exactla.kernel_basis
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        # hopf and liealg bound the name at import; both see the same wrapper.
        assert ghlie.hopf.kernel_basis is not original
        assert ghlie.hopf.kernel_basis is ghlie.liealg.kernel_basis is ghlie.exactla.kernel_basis
        ghlie.hopf.presentation_from_class2(ghlie.liealg.heisenberg(2))
    assert tracer.calls["hopf.presentation_from_class2"] == 1
    assert tracer.calls["exactla.kernel_basis"] >= 1
    assert tracer.calls["exactla._rref_rows"] >= tracer.calls["exactla.kernel_basis"]
    assert tracer.counts["exactla.rows_in"] > 0
    assert _snapshot() == before


def test_patches_are_restored_after_an_exception():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert _snapshot() == before


def test_missing_target_is_skipped(monkeypatch, capsys):
    monkeypatch.setitem(tracing.TARGETS, "exactla", ("kernel_basis", "no_such_kernel", "Subspace.no_such"))
    before = _snapshot()
    with tracing.traced(tracing.Tracer()):
        assert ghlie.hopf.kernel_basis is not before[(repr(ghlie.hopf), "kernel_basis")]
    assert "no_such_kernel not found" in capsys.readouterr().err
    assert _snapshot() == before


def test_traced_result_equals_untraced():
    a = ghlie.fixtures.seeded_gh(5, 2, 3)
    plain = ghlie.report.analyze(a, with_oracle=True).to_dict()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced = ghlie.report.analyze(a, with_oracle=True).to_dict()
    assert traced == plain
    assert tracer.calls["report.analyze"] == 1 and tracer.self_time["report.analyze"] >= 0


def test_worker_case_ships_its_spans_in_the_row():
    case = ghlie.fixtures.FixtureCase(3, 1, "generic", 0, None)
    plain = ghlie.sweep.run_case(case)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        tracer.pid = -1  # as in a forked pool worker
        row = ghlie.sweep.run_case(case)
    assert tracing.TRACE_KEY in row
    parent = tracing.Tracer()
    tracing.collect([row], parent)
    assert row == plain
    assert parent.calls["sweep.run_case"] == 1 and parent.calls["fixtures.FixtureCase.build"] == 1


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [(n, u) for n, u, _ in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(n, u) for n, u, *_ in metrics.LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    layer_names = set(metrics.layer_values(tracing.Tracer(), 1.0, 1)) | {"trace.overhead_frac"}
    assert layer_names == {n for n, *_ in metrics.LAYER}
