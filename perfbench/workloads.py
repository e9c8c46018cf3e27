"""The benchmark's four workloads: inputs from the seed, one timed pass, checks.

Every workload is a closed loop in one process: the next case starts when the
previous one has returned.  Only grid-pool starts processes, the two workers
of ``sweep.run_sweep``.  The program sees only the generated inputs, never the
seed.  ``run`` is the timed part of a pass; ``check`` runs after the clock has
stopped and returns (cases attempted, one line per failed case, digest of all
outputs).  A case fails on an exception, an unexpected mismatch, formula ≠
oracle, a ker β mismatch, a cover that does not verify or has the wrong
dimension, or dimensions that change with the basis.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import tracing

POOL_JOBS = 2


def reference() -> dict:
    """The stored default-sweep rows digest and summary."""
    return json.loads(Path(__file__).with_name("reference.json").read_text(encoding="utf-8"))


@dataclasses.dataclass
class Case:
    name: str
    seconds: float
    output: object = None
    error: str | None = None


def _timed(name: str, fn, meter) -> Case:
    """Run one case, then let the meter measure the machine's speed."""
    t0 = time.perf_counter()
    try:
        case = Case(name, 0.0, fn())
    except Exception as e:  # a failed case is counted, not fatal
        case = Case(name, 0.0, error=f"{type(e).__name__}: {e}")
    case.seconds = time.perf_counter() - t0
    meter.after(case.seconds)
    return case


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _oracle_problems(dims: dict, oracle: dict, unexpected: list, ker_beta_required: bool) -> list[str]:
    """ker β is compared only where analyze ran it (sweep rows skip it beyond 6 generators)."""
    problems = []
    if unexpected:
        problems.append(f"unexpected mismatches {unexpected}")
    if oracle.get("m_L") != dims["m_L"] or oracle.get("wedge") != dims["wedge"]:
        problems.append(f"formula {dims['m_L']}/{dims['wedge']} != oracle {oracle.get('m_L')}/{oracle.get('wedge')}")
    if oracle.get("ker_beta_matches") is False or (ker_beta_required and "ker_beta_matches" not in oracle):
        problems.append(f"ker beta check {oracle.get('ker_beta_matches')!r}")
    return problems


def sweep_summary(rows: list) -> dict:
    return {
        "cases": len(rows),
        "rows_matching": sum(1 for r in rows if r["match"]),
        "expected_mismatches": sum(len(r["expected_mismatches"]) for r in rows),
        "unexpected_mismatches": sum(len(r["unexpected_mismatches"]) for r in rows),
    }


def _check_rows(rows: list, seed: int | None) -> tuple[list[str], str]:
    failures = [
        f"{r['provenance']}: {'; '.join(p)}"
        for r in rows
        if (p := _oracle_problems(r["dims"], r["oracle"], r["unexpected_mismatches"], False))
    ]
    ref = reference()
    summary = sweep_summary(rows)
    if summary != ref["summary"]:
        failures.append(f"summary {summary} != {ref['summary']}")
    digest = _digest(rows)  # rows only: the report's config holds jobs
    if seed == 0 and digest != ref["rows_sha256"]:
        failures.append("rows digest differs from the stored default-sweep reference")
    return failures, digest


class Workload:
    name = ""
    jobs = 1  # processes doing the work
    note = ""  # printed with the metrics
    largest = None  # case reported as largest_case_s
    percentiles = False  # report case_p50_s / case_p95_s


class GridSerial(Workload):
    """The default grid, one sweep.run_case after another in this process."""

    name = "grid-serial"
    percentiles = True

    def setup(self, g, seed: int) -> dict:
        cases = g.fixtures.grid_cases((3, 4, 5, 6), (1, 2, 3), (0, 1, 2), 5)
        # Seed 0 keeps instance seeds 0..4, i.e. exactly the `ghlie sweep` default.
        cases = [c if c.seed is None else dataclasses.replace(c, seed=c.seed + 5 * seed) for c in cases]
        return {"seed": seed, "cases": cases}

    def run(self, g, inputs, tracer, meter) -> list[Case]:
        return [_timed(c.name, lambda c=c: g.sweep.run_case(c), meter) for c in inputs["cases"]]

    def check(self, inputs, cases: list[Case]) -> tuple[int, list[str], str]:
        failures = [f"{c.name}: {c.error}" for c in cases if c.error]
        rows = [c.output for c in cases if not c.error]
        more, digest = _check_rows(rows, inputs["seed"])
        return len(cases), failures + more, digest


class GridPool(Workload):
    """The default grid through sweep.run_sweep with two worker processes."""

    name = "grid-pool"
    jobs = POOL_JOBS
    note = "--seed is ignored: run_sweep fixes the instance seeds at 0..4"

    def setup(self, g, seed: int) -> dict:
        return {"config": g.sweep.SweepConfig(jobs=POOL_JOBS)}

    def run(self, g, inputs, tracer, meter) -> list[Case]:
        # One long case a pass: sample the machine's speed on both sides of it.
        meter.sample(0.5)
        case = _timed("sweep", lambda: g.sweep.run_sweep(inputs["config"]), meter)
        if not case.error:
            tracing.collect(case.output["rows"], tracer)
        return [case]

    def check(self, inputs, cases: list[Case]) -> tuple[int, list[str], str]:
        (case,) = cases
        expected = reference()["summary"]
        if case.error:
            return expected["cases"], [f"run_sweep: {case.error}"], ""
        report = case.output
        failures, digest = _check_rows(report["rows"], 0)
        if report["summary"] != expected:
            failures.append(f"reported summary {report['summary']} != {expected}")
        return len(report["rows"]), failures, digest


def _defect1_m(d: int) -> int:
    """dim M(L) of a d-generator defect-1 generalized Heisenberg algebra."""
    return d * (d - 1) * (d + 1) // 3 - d + 1


class OracleLarge(Workload):
    """analyze with the full oracle on seeded defect-1 GH algebras, d = 8..10."""

    name = "oracle-large"
    # Two instances per size rather than one at each of d = 10..13: the largest
    # case takes under 1 s, so a pass is short enough to repeat several times
    # in a run, and the machine's speed is measured often enough around it.
    sizes = (8, 8, 9, 9, 10, 10)
    largest = "d10-0"

    def setup(self, g, seed: int) -> dict:
        rng = random.Random(seed)
        cases = []
        for k, d in enumerate(self.sizes):
            # A dense ±1 relation keeps the cost of an instance close to that of
            # any other seed's, so run-to-run spread measures the program.
            n = d * (d - 1) // 2
            for _ in range(16):
                rel = g.exactla.Subspace.from_vectors(n, [{c: Fraction(rng.choice((-1, 1))) for c in range(n)}])
                try:
                    a = g.liealg.gh_construct(g.liealg.GhSpec(d=d, rank=n - 1, relation_subspace=rel))
                    break
                except g.liealg.CenterViolation:
                    continue
            else:
                raise RuntimeError(f"no defect-1 instance at d={d} in 16 draws")
            cases.append((f"d{d}-{k % 2}", d, a))
        return {"cases": cases}

    def run(self, g, inputs, tracer, meter) -> list[Case]:
        return [
            _timed(name, lambda a=a: g.report.analyze(a, with_oracle=True, check_ker_beta=True), meter)
            for name, _, a in inputs["cases"]
        ]

    def check(self, inputs, cases: list[Case]) -> tuple[int, list[str], str]:
        failures, outputs = [], []
        for (_, d, _), c in zip(inputs["cases"], cases):
            if c.error:
                failures.append(f"{c.name}: {c.error}")
                continue
            rep = c.output.to_dict()
            outputs.append(rep)
            problems = _oracle_problems(rep["dims"], rep["oracle"], rep["unexpected_mismatches"], True)
            if rep["dims"]["m_L"] != _defect1_m(d):
                problems.append(f"m_L {rep['dims']['m_L']} != {_defect1_m(d)}")
            if problems:
                failures.append(f"{c.name}: {'; '.join(problems)}")
        return len(cases), failures, _digest(outputs)


def _rational_basis(g, n: int, rng: random.Random):
    """Seeded invertible n×n matrix with entries p/q, |p| <= 3, 1 <= q <= 3."""
    for _ in range(16):
        m = g.exactla.Matrix.from_dense(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        if g.exactla.rank(m) == n:
            return m
    raise RuntimeError(f"no invertible {n}x{n} basis in 16 draws")


class CoverRational(Workload):
    """Documents of GH algebras in a dense rational basis: parse, analyze, cover, write."""

    name = "cover-rational"
    # d = 6 is left out: one such document takes over 5 s, too long a case to
    # repeat several times in a run.
    cells = ((4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3))
    largest = "d5-defect1"

    def setup(self, g, seed: int) -> dict:
        rng = random.Random(seed)
        docs = []
        for d, defect in self.cells:
            a = g.fixtures.seeded_gh(d, defect, seed)
            b = g.liealg.change_of_basis(a, _rational_basis(g, a.dim, rng))
            meta = {"family": "gh", "basis": "rational"}
            docs.append({
                "name": f"d{d}-defect{defect}",
                "text": g.docio.dumps(g.docio.algebra_to_document(b, meta)),
                "integer_dims": g.report.analyze(a).dims,
            })
        return {"docs": docs}

    @staticmethod
    def _one(g, text: str) -> dict:
        b, meta = g.docio.document_to_algebra(g.docio.loads(text))
        rep = g.report.analyze(b, with_oracle=True)
        pres = g.hopf.presentation_from_class2(b)
        cov = g.hopf.cover_construct(pres)
        verdict = g.hopf.verify_cover(pres.target, cov.algebra, cov.central_ideal)
        b_rows = [
            {str(c): g.docio.rational_str(x) for c, x in sorted(v.items())}
            for v in cov.central_ideal.vectors()
        ]
        out = g.docio.dumps(g.docio.algebra_to_document(cov.algebra, dict(meta, B=b_rows)))
        return {"dim": b.dim, "report": rep.to_dict(), "cover_ok": verdict.ok,
                "cover_dim": verdict.cover_dim, "cover_doc": out}

    def run(self, g, inputs, tracer, meter) -> list[Case]:
        return [_timed(doc["name"], lambda doc=doc: self._one(g, doc["text"]), meter) for doc in inputs["docs"]]

    def check(self, inputs, cases: list[Case]) -> tuple[int, list[str], str]:
        failures, outputs = [], []
        for doc, c in zip(inputs["docs"], cases):
            if c.error:
                failures.append(f"{c.name}: {c.error}")
                continue
            out = c.output
            outputs.append(out)
            rep = out["report"]
            problems = _oracle_problems(rep["dims"], rep["oracle"], rep["unexpected_mismatches"], True)
            if not out["cover_ok"]:
                problems.append("verify_cover not ok")
            if out["cover_dim"] != out["dim"] + rep["dims"]["m_L"]:
                problems.append(f"cover dim {out['cover_dim']} != {out['dim']} + {rep['dims']['m_L']}")
            if rep["dims"] != doc["integer_dims"]:
                problems.append(f"dims {rep['dims']} != integer-basis dims {doc['integer_dims']}")
            if problems:
                failures.append(f"{c.name}: {'; '.join(problems)}")
        return len(cases), failures, _digest(outputs)


WORKLOADS = {w.name: w for w in (GridSerial(), GridPool(), OracleLarge(), CoverRational())}
