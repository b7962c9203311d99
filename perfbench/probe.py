"""Host-speed probe: fixed work, independent of the program, timed during a run.

On a shared virtual machine the same code runs up to about 1.7 times slower
for stretches of seconds to minutes when neighbours load the host.  A run
times this probe every PROBE_INTERVAL_S between ops and scales its timings to
a host on which one probe sample takes REFERENCE_S.  An op that took t is
reported as t * REFERENCE_S / mean(samples taken within LOCAL_WINDOW_S of
the op), because the host's speed swings within seconds and a run-wide mean
leaves those swings in the latency percentiles; a rate r over the whole run
is reported as r * mean(all samples) / REFERENCE_S.  The probe shares no
code with the program, so a change to the program moves the scaled figures
exactly as it moves the raw ones; the raw figures are kept in the result
file.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REFERENCE_S = 1.0e-3  # about one sample on a 2-vCPU Intel Xeon VM
PROBE_INTERVAL_S = 0.1
LOCAL_WINDOW_S = 1.0
PASSES = 10
BURST = 20  # samples taken right after a set-up


class SpeedProbe:
    """A few bitset BFS passes with layer counts on 125-bit Python ints.

    This is the shape of the certification and recheck loops: big-int ORs,
    ANDs and popcounts driven by the bytecode interpreter.
    """

    def __init__(self) -> None:
        n, q = 125, 5
        rng = random.Random(0)
        members: set[int] = set()
        while len(members) < 40:
            g = rng.randrange(1, n)
            members |= {g, (-(g // q) % (n // q)) * q + (-(g % q) % q)}
        self.adj = []
        for v in range(n):
            row = 0
            for g in members:
                row |= 1 << (((v // q + g // q) % (n // q)) * q + (v % q + g % q) % q)
            self.adj.append(row)
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample ended
        self._due = 0.0

    def work(self) -> int:
        adj = self.adj
        total = 0
        for _ in range(PASSES):
            layers, visited, frontier = [], 1, 1
            while frontier:
                layers.append(frontier)
                nxt, f = 0, frontier
                while f:
                    low = f & -f
                    nxt |= adj[low.bit_length() - 1]
                    f ^= low
                frontier = nxt & ~visited
                visited |= frontier
            for i, layer in enumerate(layers):
                prev, f = (layers[i - 1] if i else 0), layer
                while f:
                    low = f & -f
                    row = adj[low.bit_length() - 1]
                    total += (row & prev).bit_count() + (row & layer).bit_count()
                    f ^= low
        return total

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.times.append(t1)

    def maybe_sample(self) -> None:
        """Take a sample when PROBE_INTERVAL_S has passed since the last one."""
        if time.perf_counter() >= self._due:
            self.sample()
            self._due = time.perf_counter() + PROBE_INTERVAL_S

    def burst(self) -> "SpeedProbe":
        for _ in range(BURST):
            self.sample()
        return self

    def slowdown(self) -> float:
        """Host slowdown against the reference: mean sample / REFERENCE_S."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def slowdown_around(self, start: float, end: float) -> float:
        """Slowdown from the samples taken within LOCAL_WINDOW_S of [start, end].

        Falls back to the whole run's slowdown when no sample lies that close.
        """
        lo = bisect.bisect_left(self.times, start - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + LOCAL_WINDOW_S)
        if lo == hi:
            return self.slowdown()
        return statistics.fmean(self.samples[lo:hi]) / REFERENCE_S
