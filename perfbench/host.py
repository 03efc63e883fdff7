"""Host speed readings, to report times at one reference speed.

A shared host can run the same pure-Python code at two speeds about 1.4-2x
apart, and switch between them every few seconds to minutes.  The workloads
take a reading before their first operation and after each one; an
operation's time is scaled by REF_MS over the mean of the two readings
around it.  Measured over 4 minutes on such a host, this cut the spread
(quartile distance over median) of 30-second medians of one planning
problem from 0.22-0.27 (raw median) and 0.11-0.36 (raw minimum) to
0.05-0.10.  Scaling at pass boundaries alone did not help:
the state changes within a pass.  A reference loop shaped like the
planner tracked GBFS better than a plain dict-and-list loop (0.06 against
0.10 on the same 4 minutes).
"""
from __future__ import annotations

import heapq
import time

# a reading on the host the benchmark was tuned on (2 shared cores), in its
# faster state; scaled times are seconds at that speed
REF_MS = 1.05
_INF = float("inf")


def reading() -> float:
    """Least of five runs of a fixed loop shaped like the planner's hot path
    (lists of costs, a heap of (cost, fact) pairs), in ms."""
    best = _INF
    for _ in range(5):
        started = time.perf_counter()
        cost = [_INF] * 4000
        acc = [0.0] * 4000
        heap = [(i % 50, i) for i in range(0, 4000, 3)]
        heapq.heapify(heap)
        while heap:
            c, f = heapq.heappop(heap)
            if c < cost[f]:
                cost[f] = c
                acc[f * 7 % 4000] += c
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def factors(readings: list[float]) -> list[float]:
    """Scale factor for each interval between consecutive readings."""
    return [2 * REF_MS / (a + b) for a, b in zip(readings, readings[1:])]
