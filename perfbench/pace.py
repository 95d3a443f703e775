"""A machine-speed reference measured alongside the workload.

The benchmark's host is a small shared VM whose speed drifts by tens
of percent from one half-minute to the next, and by up to a factor of
two over an hour, far more than any code change the benchmark must
resolve.  So every run interleaves short,
fixed bursts of reference work with its own operations and scales its
timings by how fast the bursts ran.  A reported time is the measured
time times ``NOMINAL_BURST_S / median(burst)``: the time the operation
would have taken on a machine running the reference burst in
``NOMINAL_BURST_S``.  The burst uses no code of the program, so a change
to the program moves the scaled time exactly as it moves the raw one;
only the machine's drift is divided out.  Raw times and the factor are
printed with every result.
"""

from __future__ import annotations

import statistics
import time

#: Median burst time on the sizing host (2-core Xeon VM, Python 3.11).
NOMINAL_BURST_S = 0.007

#: Minimum wall time between two bursts.
INTERVAL_S = 0.1

#: Size of the burst's probe buffer: far larger than any last-level
#: cache, so a probe misses the cache whatever the workload left behind.
#: It is zero-filled, so all of it is resident for the whole run.
BUFFER_BYTES = 64 << 20


def burst(buffer: bytearray, seed: int) -> float:
    """Time one reference burst: pseudo-random reads of ``buffer`` mixed
    with interpreter work, so it waits on memory and on the core the way
    the program's graph and tree dictionaries do."""
    mask = len(buffer) - 1
    index = seed
    total = 0
    start = time.process_time()
    for _ in range(20_000):
        index = (index * 1_103_515_245 + 12_345) & mask
        total += buffer[index]
    return time.process_time() - start


class Pace:
    """Collects reference bursts; ``tick()`` between operations runs one
    when ``INTERVAL_S`` has passed since the last."""

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self._due = 0.0
        self._buffer = bytearray(BUFFER_BYTES)

    def tick(self) -> None:
        if time.perf_counter() >= self._due:
            self.bursts.append(burst(self._buffer, len(self.bursts) + 1))
            self._due = time.perf_counter() + INTERVAL_S

    def factor(self) -> float:
        """Scale from measured to reference-speed time (1 when no burst ran)."""
        if not self.bursts:
            return 1.0
        return NOMINAL_BURST_S / statistics.median(self.bursts)


class NoPace:
    """Stand-in for a workload driven outside ``run.py`` (the tests):
    no bursts, nothing scaled."""

    def tick(self) -> None:
        pass
