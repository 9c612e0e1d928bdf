"""Load drivers: one publisher stream, one thread, same process.

A workload exposes ``prepare(i) -> op`` (build operation ``i``'s inputs,
untimed), ``run(op)`` (the call into the broker, timed) and
``observe(i, op, result)`` (record what the oracle check needs,
untimed).  ``op.kind`` is ``"publish"`` or ``"churn"``.

The closed loop is calibrated.  On a shared host the same code runs up
to ~1.5x slower for minutes at a time, whatever the program does, so
raw times from two runs are hard to compare.  Every
:data:`CALIBRATE_EVERY_S` the loop times a fixed reference kernel
(:class:`Calibrator`) and scales the operations timed since the last
kernel run by ``REFERENCE_S / kernel time`` (the mean of the runs
before and after them): times read as µs at the speed at which the
kernel takes :data:`REFERENCE_S`.  The raw times are kept too.
"""

from __future__ import annotations

import array
import random
import statistics
import time
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

import numpy as np

from tracing import Tracer

#: Below this much slack the open-loop generator spins instead of sleeping.
_SPIN_S = 0.0003
#: How often the closed loop re-times the reference kernel.
CALIBRATE_EVERY_S = 0.25
#: Kernel time that defines the reference speed (roughly its median on
#: a 2-vCPU x86-64 KVM guest at 2.1 GHz, CPython 3.11).
REFERENCE_S = 0.010


class Calibrator:
    """A fixed kernel of the three kinds of work the publish path is made
    of -- dict lookups, reads scattered over more memory than a core's
    cache holds, and small NumPy calls; no repository code.  The
    scattered reads make it slow down, as ``scale``'s big index does,
    when other tenants crowd the shared cache."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._keys = [rng.randrange(1 << 30) for _ in range(10000)]
        self._table = {key: i for i, key in enumerate(self._keys)}
        self._memory = array.array("q", range(1 << 21))  # 16 MiB
        self._offsets = [rng.randrange(1 << 21) for _ in range(20000)]
        self._small = np.arange(64, dtype=np.float64)

    def measure(self, passes: int = 1) -> float:
        """Seconds one pass of the kernel takes right now (the median
        of ``passes`` passes)."""
        if passes > 1:
            return statistics.median(self.measure() for _ in range(passes))
        began = perf_counter()
        total = 0
        table = self._table
        for key in self._keys:
            total += table[key]
        memory = self._memory
        for offset in self._offsets:
            total += memory[offset]
        small = self._small
        for i in range(1000):
            total += float(np.sum(small < i % 64))
        return perf_counter() - began

    def scale(self, before: float, after: float) -> float:
        """Factor from raw times to times at the reference speed."""
        return REFERENCE_S / ((before + after) / 2)


@dataclass
class LoopResult:
    """Service or response times (seconds) by operation kind."""

    #: Calibrated (closed loop) or raw (open loop) times.
    times: Dict[str, List[float]] = field(
        default_factory=lambda: {"publish": [], "churn": []}
    )
    raw: Dict[str, List[float]] = field(
        default_factory=lambda: {"publish": [], "churn": []}
    )
    #: Kernel times measured by the closed loop, seconds.
    kernel: List[float] = field(default_factory=list)
    #: Open loop only: due -> start of each publish (queueing + lateness).
    waits: List[float] = field(default_factory=list)
    #: Open loop only: how late the generator started an operation
    #: that nothing was queued ahead of.
    late: List[float] = field(default_factory=list)
    next_index: int = 0

    @property
    def publishes(self) -> int:
        return len(self.times["publish"])


def closed_loop(
    workload,
    start: int,
    seconds: float,
    calibrator: Calibrator,
    tracer: Optional[Tracer] = None,
) -> LoopResult:
    """Run operations back to back until ``seconds`` have passed."""
    out = LoopResult()
    pending: Dict[str, List[float]] = {"publish": [], "churn": []}
    before = calibrator.measure()
    out.kernel.append(before)
    now = perf_counter()
    deadline = now + seconds
    next_calibration = now + CALIBRATE_EVERY_S
    i = start
    while True:
        op = workload.prepare(i)
        if tracer is None:
            began = perf_counter()
            result = workload.run(op)
            ended = perf_counter()
        else:
            tracer.trace_id = i
            index = tracer.begin()
            began = perf_counter()
            began_ns = perf_counter_ns()
            result = workload.run(op)
            tracer.end(index, "op." + op.kind, began_ns)
            ended = perf_counter()
        pending[op.kind].append(ended - began)
        workload.observe(i, op, result)
        i += 1
        if ended >= next_calibration or ended >= deadline:
            after = calibrator.measure()
            out.kernel.append(after)
            factor = calibrator.scale(before, after)
            for kind, samples in pending.items():
                out.raw[kind].extend(samples)
                out.times[kind].extend(t * factor for t in samples)
                samples.clear()
            before = after
            next_calibration = perf_counter() + CALIBRATE_EVERY_S
        if ended >= deadline:
            break
    out.next_index = i
    return out


def open_loop(
    workload, start: int, seconds: float, rate: float
) -> LoopResult:
    """Offer operations at a fixed ``rate``; time each from its due time.

    A stall delays every operation queued behind it, and that wait is
    part of their response time.  The generator's own lateness (it
    woke after an operation's due time with nothing queued ahead) is
    reported separately.  Times are raw: a kernel run would itself
    delay the schedule.
    """
    out = LoopResult()
    period = 1.0 / rate
    origin = perf_counter() + 0.001
    count = int(seconds * rate)
    previous_end = origin
    i = start
    for n in range(count):
        op = workload.prepare(i)
        due = origin + n * period
        slack = due - perf_counter()
        if slack > _SPIN_S:
            time.sleep(slack - _SPIN_S)
        while perf_counter() < due:
            pass
        began = perf_counter()
        result = workload.run(op)
        ended = perf_counter()
        if op.kind == "publish":
            out.times["publish"].append(ended - due)
            out.waits.append(began - due)
        if previous_end <= due:
            out.late.append(began - due)
        previous_end = ended
        workload.observe(i, op, result)
        i += 1
    out.next_index = i
    return out
