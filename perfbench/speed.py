"""Host speed, measured by a fixed reference kernel next to the workload.

The benchmark's hosts are shared. For a minute or more at a time, other
tenants can make every step up to 1.8 times slower, in CPU time as well as
in wall time, so raw times of the same code spread by more than any useful
bound. A run therefore times this kernel after every rep, and each rep's
times are scaled by ``NOMINAL_S / kernel time``: they read as seconds on a
host where the kernel takes ``NOMINAL_S``. The kernel does the kinds of work
``queuerl`` does, in about equal shares: a heap-driven event loop over dicts,
an append-only log of small records, and small dense layers in numpy. So
contention slows the kernel and the workload alike. It is part of
the benchmark and imports nothing from ``queuerl``, so a change to the
program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

import numpy as np

# About the median kernel time on a 2-vCPU x86-64 KVM guest (Intel Xeon,
# 2.1 GHz), Python 3.11, numpy 2.4. Any constant would do: runs are compared
# with each other, not with this value.
NOMINAL_S = 0.1


def _event_loop(events: int) -> float:
    rng = random.Random(7)
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    clock = 0.0
    for i in range(64):
        heapq.heappush(heap, (rng.expovariate(1.0), i))
    for _ in range(events):
        clock, node = heapq.heappop(heap)
        counts[node] = counts.get(node, 0) + 1
        heapq.heappush(heap, (clock + rng.expovariate(1.0), (node * 31 + 7) % 64))
    return clock


class _Record:
    __slots__ = ("time", "node", "job")


def _record_log(records: int) -> float:
    rng = random.Random(7)
    log: list[_Record] = []
    by_key: dict[int, _Record] = {}
    for i in range(records):
        record = _Record()
        record.time, record.node, record.job = rng.random(), i % 391, i
        log.append(record)
        by_key[rng.randrange(1 << 20)] = record
    return sum(record.time for record in log)


def _dense_layers(passes: int) -> float:
    rng = np.random.default_rng(7)
    w1, w2 = rng.standard_normal((24, 64)) * 0.2, rng.standard_normal((64, 24)) * 0.2
    x = rng.standard_normal((8, 24))
    for _ in range(passes):
        x = np.tanh(np.maximum(x @ w1, 0.0) @ w2)
    return float(x.sum())


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now.

    The garbage collector is off meanwhile: a collection would scan the
    objects the workload keeps alive, and the kernel must not time those.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _event_loop(25_000)
        _record_log(30_000)
        _dense_layers(4_500)
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()
