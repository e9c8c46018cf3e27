#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 0-9 --seconds 24 [--workloads grid-serial,oracle-large]
                                [--trace 0] [--out perfbench/baseline.json]

Each (workload, seed) is one ``run.py`` process.  For every metric the
summary gives the median of the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median that
BENCHMARK.json's bounds are compared with.  With --out it also records the
machine, the commit, each workload's reason and the layer-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - t0
    result["samples"] = {m.group(1): int(m.group(4)) for m in map(LINE.match, lines) if m}
    result["all"] = {m.group(1): float(m.group(2)) for m in map(LINE.match, lines) if m}
    return result


def summarise(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=spread(values) if out["median"] else None)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="grid-serial,grid-pool,oracle-large,cover-rational")
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds, args.trace) for s in seeds]
        names = list(runs[0]["all"])
        table = {}
        for name in names:
            table[name] = summarise([r["all"][name] for r in runs])
            table[name]["unit"] = metrics.UNITS[name]
            table[name]["samples_per_run"] = runs[0]["samples"][name]
        summary[workload] = {
            "why": whys.get(workload),
            "correct": all(r["correct"] for r in runs),
            "run_s": summarise([r["run_s"] for r in runs]),
            "metrics": table,
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"run_s median {summary[workload]['run_s']['median']:.1f}")
        for name, row in table.items():
            s = row.get("spread")
            flag = ""
            if name in bounds and s is not None:
                flag = f"  bound {bounds[name]}  {'ok' if s < bounds[name] / 3 else 'WIDE'}"
            print(f"  {name:<26} median {row['median']:<12.6g} spread {s if s is None else round(s, 4)}{flag}")
            print(f"  {'':<26} values {' '.join(f'{v:.4g}' for v in row['values'])}")
        sys.stdout.flush()

    if args.out:
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
        doc = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform(), "commit": commit},
            "run_seconds": args.seconds,
            "trace": args.trace,
            "seeds": seeds,
            "workloads": summary,
            "layer_map": [
                {"metric": name, "unit": unit, "moves": moves, "on": on}
                for name, unit, moves, on in metrics.LAYER
            ],
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
