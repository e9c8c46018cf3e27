"""Machine speed, measured with a fixed loop right after each timed case.

On a shared virtual machine the CPU's speed can change by up to 2x, for
fractions of a second and for minutes at a time: on a 2-vCPU Xeon VM with
Python 3.11 the same loop took 5.3 ms and 9.4 ms twenty minutes apart, in CPU
time as well as in wall time.  Raw times from two runs are then not
comparable.  So after every case the benchmark runs UNIT, pure-Python
Fraction arithmetic on dict rows like ghlie's own kernel, for FRACTION of the
case's time, and scales the pass's times by REF_UNIT_S over UNIT's mean time
in that pass.  Scaled times are seconds at the speed at which UNIT takes
REF_UNIT_S, about that VM's speed when nothing slowed it.  UNIT does not use
ghlie, so a change to ghlie moves scaled and raw times alike.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction


REF_UNIT_S = 0.0009
FRACTION = 0.2
_ZERO = Fraction(0)


def unit() -> dict:
    """UNIT: a fixed batch of Fraction products summed into sparse dict rows."""
    acc: dict = {}
    for i in range(240):
        c = i % 16
        s = acc.get(c, _ZERO) + Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 2)
        if s:
            acc[c] = s
        else:
            acc.pop(c, None)
    return acc


def units_for(seconds: float) -> tuple[int, float]:
    """Run UNIT for at least `seconds`; return (units run, seconds taken)."""
    count = 0
    t0 = time.perf_counter()
    end = t0 + seconds
    while True:
        unit()
        count += 1
        t = time.perf_counter()
        if t >= end:
            return count, t - t0


class Helpers:
    """`n` helper processes that run UNIT on request, all at once.

    Each is this file run as a script, answering over its stdin and stdout,
    so this process starts no thread (sweep.run_sweep forks its workers from
    it) and no process besides the helpers.
    """

    def __init__(self, n: int):
        self._procs = []
        try:
            for _ in range(n):
                self._procs.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
        except BaseException:
            self.close()
            raise

    def run(self, seconds: float) -> list[tuple[int, float]]:
        for proc in self._procs:
            proc.stdin.write(f"{seconds!r}\n")
            proc.stdin.flush()
        runs = []
        for proc in self._procs:
            count, spent = proc.stdout.readline().split()
            runs.append((int(count), float(spent)))
        return runs

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Meter:
    """Runs UNIT after each piece of work for FRACTION of that work's time.

    With helpers, UNIT runs in each helper process at once, so that work
    spread over several cores is scaled by the speed of as many cores.
    """

    def __init__(self, helpers: Helpers | None = None):
        self.helpers = helpers
        self.count = 0
        self.seconds = 0.0

    def after(self, work_seconds: float) -> None:
        self.sample(FRACTION * work_seconds)

    def sample(self, seconds: float) -> None:
        runs = [units_for(seconds)] if self.helpers is None else self.helpers.run(seconds)
        for count, spent in runs:
            self.count += count
            self.seconds += spent

    def scale(self) -> float:
        """Factor from seconds of the work metered so far to reference seconds."""
        return REF_UNIT_S * self.count / self.seconds


def serve() -> None:
    """Helper loop: for each line of stdin (seconds), print 'units seconds-taken'."""
    for line in sys.stdin:
        count, spent = units_for(float(line))
        print(count, spent, flush=True)


if __name__ == "__main__":
    serve()
