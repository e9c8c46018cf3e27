#!/usr/bin/env python3
"""Run one benchmark workload against the ghlie sources of this checkout.

    python3 perfbench/run.py --workload grid-serial --seed 0 --seconds 24 --trace 0

Set-up (import ghlie, build the inputs from --seed) is repeated at least
SETUP_REPEATS times and for SETUP_SECONDS, and its median reported as setup_s.
Then whole passes over the inputs run until --seconds have gone by, at least
MIN_PASSES of them.  Each pass's times are scaled to reference seconds by
the machine speed measured right after each of its cases (calibrate.py);
wall_s is the median over passes of a pass's scaled total.  With
``--trace 1`` untraced and traced passes alternate; the traced ones give the
per-layer metrics and their cost relative to the untraced ones.  Every pass is
checked, and all passes must produce the same outputs.

The last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import calibrate
import metrics
import stats
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("exactla", "liealg", "fixtures", "multiplier", "hopf", "report", "docio", "sweep")
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
MIN_PASSES = 3


def load_ghlie() -> SimpleNamespace:
    """Import ghlie afresh from SRC (earlier imports are dropped, so each set-up pays for one)."""
    for name in [n for n in sys.modules if n == "ghlie" or n.startswith("ghlie.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ghlie")
    if Path(pkg.__file__).resolve().parent != (SRC / "ghlie").resolve():
        raise SystemExit(f"perfbench: imported ghlie from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"ghlie.{m}") for m in MODULES})


@dataclass
class Pass:
    raw: dict  # case -> seconds as measured
    scale: float  # reference seconds per measured second in this pass
    attempted: int
    failures: list
    digest: str
    layers: dict | None = None

    @property
    def seconds(self) -> dict:
        return {name: t * self.scale for name, t in self.raw.items()}

    @property
    def total(self) -> float:
        return sum(self.raw.values()) * self.scale


def one_pass(workload, g, inputs, tracer, helpers) -> Pass:
    meter = calibrate.Meter(helpers)
    if tracer is None:
        cases = workload.run(g, inputs, None, meter)
    else:
        tracer.reset()
        with tracing.traced(tracer):
            cases = workload.run(g, inputs, tracer, meter)
    attempted, failures, digest = workload.check(inputs, cases)
    raw = {c.name: c.seconds for c in cases}
    scale = meter.scale()
    layers = None
    if tracer:
        layers = metrics.layer_values(tracer, sum(raw.values()), workload.jobs)
        layers = {k: v * scale if metrics.UNITS[k] == "s" else v for k, v in layers.items()}
    return Pass(raw, scale, attempted, failures, digest, layers)


def measure(workload, g, inputs, seconds: float, trace: bool, helpers) -> list[Pass]:
    """Passes until `seconds` are used up; with trace, untraced/traced pairs."""
    tracer = tracing.Tracer() if trace else None
    passes: list[Pass] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for t in (None, tracer) if trace else (None,):
            passes.append(one_pass(workload, g, inputs, t, helpers))
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (1 if trace else MIN_PASSES)
        if enough and elapsed + statistics.median(rounds) > seconds:
            return passes


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ghlie" / "__init__.py").is_file():
        print(f"perfbench: no ghlie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setups = []
    setup_meter = calibrate.Meter()
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        t0 = time.perf_counter()
        g = load_ghlie()
        inputs = workload.setup(g, args.seed)
        setups.append(time.perf_counter() - t0)
        setup_meter.after(setups[-1])

    if workload.jobs > 1:
        with calibrate.Helpers(workload.jobs) as helpers:
            passes = measure(workload, g, inputs, args.seconds, bool(args.trace), helpers)
    else:
        passes = measure(workload, g, inputs, args.seconds, bool(args.trace), None)
    plain = [p for p in passes if p.layers is None]
    traced = [p for p in passes if p.layers is not None]

    failures = [f for p in passes for f in p.failures]
    if len({p.digest for p in passes}) != 1:
        failures.append("outputs differ between passes (traced vs untraced, or run to run)")
    attempted = sum(p.attempted for p in passes)
    failed = min(attempted, len(failures))

    per_case = {name: statistics.median(p.seconds[name] for p in plain) for name in plain[0].raw}
    values = {
        "wall_s": statistics.median(p.total for p in plain),
        "setup_s": statistics.median(setups) * setup_meter.scale(),
        "peak_rss_mib": peak_rss_mib(),
        "failed_frac": failed / attempted,
        "wall_raw_s": statistics.median(sum(p.raw.values()) for p in plain),
        "speed_scale": statistics.median(p.scale for p in plain),
    }
    counts = {"wall_s": len(plain), "setup_s": len(setups), "failed_frac": attempted,
              "wall_raw_s": len(plain), "speed_scale": len(plain)}
    if workload.percentiles:
        n = len(per_case)
        values["case_p50_s"] = stats.percentile(per_case.values(), 50)
        counts["case_p50_s"] = n
        if stats.reportable(n, 95):
            values["case_p95_s"] = stats.percentile(per_case.values(), 95)
            counts["case_p95_s"] = n
    if workload.largest:
        values["largest_case_s"] = per_case[workload.largest]
        counts["largest_case_s"] = len(plain)

    if traced:
        for name, *_ in metrics.LAYER:
            if name != "trace.overhead_frac":
                values[name] = statistics.median(p.layers[name] for p in traced)
                counts[name] = len(traced)
        values["trace.overhead_frac"] = statistics.median(p.total for p in traced) / values["wall_s"] - 1
        counts["trace.overhead_frac"] = len(traced)
        reported = [name for name, *_ in metrics.LAYER]
    else:
        reported = [name for name, *_ in metrics.END_TO_END]

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced + {len(traced)} traced  nproc {os.cpu_count()}  "
          f"python {platform.python_version()}")
    if workload.note:
        print(f"  note: {workload.note}")
    for name, value in values.items():
        print(f"  {name:<26} {value:>14.6g} {metrics.UNITS[name]:<6} n={counts.get(name, 1)}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": metrics.UNITS[name]} for name in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
