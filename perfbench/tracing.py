"""Layer spans around ghlie's functions, installed from outside the program.

``traced(tracer)`` replaces each function named in TARGETS by a wrapper that
records one span per call, and restores every original on exit.  A function
imported by name (``from .exactla import kernel_basis`` in hopf and liealg) is
bound in several modules, so the wrapper goes into every ghlie module that
holds the original object; patching only the defining module would miss those
calls.

Spans nest on a stack.  Each closed span adds its duration to its parent's
child time, so a span's self time is its duration minus its child spans.  The
tracer keeps per-name aggregates, not a list of spans: a pass of the default
grid closes more than 40,000 spans.

In a ``sweep.run_sweep`` pool the workers are forked with the wrappers in
place.  The ``sweep.run_case`` wrapper notices it runs in another process,
traces that one case afresh and returns its aggregates inside the row under
TRACE_KEY; ``collect`` moves them into the parent's tracer.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

TRACE_KEY = "_perfbench_trace"

# module -> functions to span; "Class.method" patches the class attribute.
TARGETS = {
    "exactla": (
        "_rref_rows", "kernel_basis", "solve", "invert", "rank", "rref",
        "subspace_sum", "subspace_intersect", "Subspace.reduce", "Subspace.from_vectors",
    ),
    "liealg": (
        "derived_subalgebra", "center", "lower_central_series", "is_nilpotent_of_class_at_most",
        "quotient", "class2_from_relations", "gh_construct", "random_relation_subspace",
        "change_of_basis", "rebase_class2", "subalgebra_closure", "restrict", "direct_sum",
    ),
    "fixtures": ("FixtureCase.build",),
    "multiplier": ("psi2_image", "multiplier_dim"),
    "hopf": (
        "presentation_from_class2", "ker_beta", "exterior_center", "hopf_multiplier_dim",
        "exterior_square_oracle", "cover_construct", "verify_cover", "extension_witness",
    ),
    "report": ("analyze",),
    "docio": ("loads", "document_to_algebra", "algebra_to_document", "dumps"),
    "sweep": ("run_case", "run_sweep"),
}


class Tracer:
    """Per-name span aggregates (calls, total, self time) and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._stack: list = []  # [name, start, child seconds]

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def discount(self, seconds: float) -> None:
        """Charge tracer bookkeeping done inside the open span to no layer."""
        if self._stack:
            self._stack[-1][2] += seconds

    def add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def merge(self, data: dict) -> None:
        self.calls.update(data["calls"])
        for name, s in data["total"].items():
            self.total[name] += s
        for name, s in data["self"].items():
            self.self_time[name] += s
        self.counts.update(data["counts"])
        for key, value in data["maxima"].items():
            self.peak(key, value)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for name, s in self.self_time.items() if name.startswith(prefix))


def _span(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def _coeff_bits(rows) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for r in rows for x in r.values()),
        default=0,
    )


def _kernel(tracer: Tracer, name: str, fn):
    """Elimination kernel: rows in, and the largest coefficient it returns."""
    inner = _span(tracer, name, fn)

    def wrapper(row_vecs):
        t0 = tracer.clock()
        rows = row_vecs if isinstance(row_vecs, list) else list(row_vecs)
        tracer.discount(tracer.clock() - t0)
        out = inner(rows)
        t0 = tracer.clock()
        tracer.add("exactla.rows_in", len(rows))
        tracer.peak("exactla.max_coeff_bits", _coeff_bits(out))
        tracer.discount(tracer.clock() - t0)
        return out

    return wrapper


def _text_bytes(key: str, text_of):
    """Span plus a byte count of the text text_of(args, result)."""

    def hook(tracer: Tracer, name: str, fn):
        inner = _span(tracer, name, fn)

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            t0 = tracer.clock()
            tracer.add(key, len(text_of(args, out).encode("utf-8")))
            tracer.discount(tracer.clock() - t0)
            return out

        return wrapper

    return hook


def _case(tracer: Tracer, name: str, fn):
    """sweep.run_case: in a pool worker, ship the case's aggregates in its row."""
    inner = _span(tracer, name, fn)

    def wrapper(*args, **kwargs):
        if os.getpid() == tracer.pid:
            return inner(*args, **kwargs)
        tracer.reset()
        row = inner(*args, **kwargs)
        row[TRACE_KEY] = tracer.export()
        return row

    return wrapper


_HOOKS = {
    "exactla._rref_rows": _kernel,
    "docio.loads": _text_bytes("docio.bytes_in", lambda args, out: args[0]),
    "docio.dumps": _text_bytes("docio.bytes_out", lambda args, out: out),
    "sweep.run_case": _case,
}


def _ghlie_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "ghlie" or n.startswith("ghlie.")]


class Patches:
    """setattr calls that can be undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every TARGETS function; names that no longer exist are reported and skipped."""
    modules = _ghlie_modules()
    for layer, names in TARGETS.items():
        module = sys.modules.get(f"ghlie.{layer}")
        for attr in names:
            span = f"{layer}.{attr}"
            hook = _HOOKS.get(span, _span)
            cls_name, _, method = attr.rpartition(".")
            cls = getattr(module, cls_name, None) if cls_name else None
            original = vars(cls).get(method) if cls is not None else getattr(module, attr, None)
            if original is None:
                print(f"perfbench: ghlie.{span} not found; its span is skipped", file=sys.stderr)
            elif isinstance(original, classmethod):
                patches.replace(cls, method, classmethod(hook(tracer, span, original.__func__)))
            elif cls is not None:
                patches.replace(cls, method, hook(tracer, span, original))
            else:
                wrapper = hook(tracer, span, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            patches.replace(m, key, wrapper)


@contextmanager
def traced(tracer: Tracer):
    patches = Patches()
    try:
        install(tracer, patches)
        yield tracer
    finally:
        patches.restore()


def collect(rows: list, tracer: Tracer | None) -> None:
    """Remove worker aggregates from sweep rows, merging them into tracer."""
    for row in rows:
        data = row.pop(TRACE_KEY, None)
        if data is not None and tracer is not None:
            tracer.merge(data)
