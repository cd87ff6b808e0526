"""Host-speed probe: measured times in reference-host seconds.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent within seconds and between minutes.  Process CPU time drifts
with wall time, so this is CPU speed, not preemption, and running longer
does not average it away.  The probe is a fixed piece of pure-Python
work that never calls the simulator: an integer loop and a small
register machine over a 2 MB memory, about 30 ms.  It runs between the
pieces of measured work (between cells, between fabric steps, in set-up)
and is left out of every measured interval.

:func:`scaled` turns an interval into reference-host seconds: its time
outside the probes, multiplied by ``REFERENCE_PROBE_S`` over the median
probe time of the pass.  A change to the simulator moves the scaled
times as it moves wall times, because the probe's work never changes; a
slow host period moves both the work and the probes, and cancels out.
The median over the whole pass, not over the probes nearest in time,
because single probes stray by a quarter: over six runs of the cold
sweep, weighting each stretch of the makespan by its five nearest probes
gave an IQR/median of 0.050, the median of all 66 of a pass's probes 0.019.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, List, Sequence, Tuple

#: Probe time of the reference host: scaled times are seconds on a host
#: that runs one probe in this long (the median on a 2-core x86 VM,
#: Python 3.11).
REFERENCE_PROBE_S = 0.030
#: :meth:`Clock.maybe_probe` probes once this long has passed since the
#: last probe ended.
PROBE_INTERVAL_S = 0.25

LOOP_ITERATIONS = 200_000
MACHINE_STEPS = 40_000
_MEMORY_WORDS = 1 << 18
_MEMORY = [0] * _MEMORY_WORDS
_rng = random.Random(1)
_PROGRAM = [(_rng.randrange(4), _rng.randrange(8), _rng.randrange(8), _rng.randrange(1024))
            for _ in range(64)]
del _rng

Probe = Tuple[float, float]


class _Machine:
    __slots__ = ("regs", "pc", "flag")


def _loop() -> int:
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i & 7
    return acc


def _machine() -> int:
    m = _Machine()
    m.regs = [1, 2, 3, 4, 5, 6, 7, 8]
    m.pc = 0
    m.flag = 0
    memory, program, histogram = _MEMORY, _PROGRAM, {}
    mask = _MEMORY_WORDS - 1
    x = 12345
    for _ in range(MACHINE_STEPS):
        op, a, b, imm = program[m.pc]
        regs = m.regs
        if op == 0:
            regs[a] = (regs[a] + regs[b] + imm) & 0xFFFFFFFF
        elif op == 1:
            x = (x * 1103515245 + 12345) & mask
            regs[a] = memory[x]
        elif op == 2:
            x = (x * 1103515245 + 12345) & mask
            memory[x] = regs[b]
        else:
            key = (regs[a] >> 3) & 4095
            histogram[key] = histogram.get(key, 0) + 1
        m.flag = regs[a] & 1
        m.pc = (m.pc + 1 + m.flag) & 63
    return len(histogram)


def probe_work() -> None:
    _loop()
    _machine()


#: What :func:`probe` runs; a traced pass wraps it in a ``bench.probe`` span.
_work: Callable[[], None] = probe_work


def trace_probes(span: Callable[[str, Callable], Callable]) -> None:
    """Record every later probe as a ``bench.probe`` span."""
    global _work
    _work = span("bench.probe", probe_work)


def probe() -> Probe:
    """Run the probe once; its ``(start, end)`` on ``time.perf_counter``."""
    start = time.perf_counter()
    _work()
    return start, time.perf_counter()


class Clock:
    """The probes one process took, in time order."""

    def __init__(self) -> None:
        self.probes: List[Probe] = []

    def probe(self) -> None:
        self.probes.append(probe())

    def maybe_probe(self) -> None:
        if not self.probes or time.perf_counter() - self.probes[-1][1] >= PROBE_INTERVAL_S:
            self.probe()


def median_probe_s(probes: Sequence[Probe]) -> float:
    return statistics.median(end - start for start, end in probes)


def scaled(start: float, end: float, probes: Sequence[Probe],
           speed: Sequence[Probe] = ()) -> float:
    """Reference-host seconds of ``[start, end]``: its time outside
    ``probes`` (those of the process that did the work), scaled by the
    median of ``speed`` (by default the same probes)."""
    inside = sum(max(0.0, min(p_end, end) - max(p_start, start)) for p_start, p_end in probes)
    return (end - start - inside) * REFERENCE_PROBE_S / median_probe_s(speed or probes)
