"""Host speed, measured next to every rep so host timings can be scaled.

The benchmark shares a few cores of a host with other guests, and the
speed of those cores changes by up to 1.9x within tens of seconds: the
same ``q6-burst`` body, at the same seed, takes anywhere from 1.2 s to
1.9 s. A fixed calibration kernel timed just before and just after each
body follows that drift (its time correlates with the body's at
0.7-0.85), so a host time multiplied by :func:`factor` reads in
*reference seconds*: the seconds the same work takes on a host that
runs the kernel in :data:`REFERENCE_S`.

The kernel is plain Python and numpy and imports nothing from the
simulator, so a change to the program cannot move it. It mixes what
the simulator's hot paths do: heap-ordered events resuming generators,
scattered lookups in a dict of 128k entries, and small numpy reductions.
The dict is larger than a core's private caches, so, like the
simulator walking its object graphs, the kernel waits on memory as well
as on the processor. With a quarter of the entries, the bodies of
``shard-replay`` and ``q12-chaos`` took time in proportion to only
about the 0.55th power of the kernel's, so scaling over-corrected. The
collector is off while the kernel runs (see :func:`sample`).
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

import numpy as np

#: Median kernel time on a 2-vCPU KVM guest (Intel Xeon, Python 3.11,
#: numpy 2.4); it fixes the scale of reference seconds.
REFERENCE_S = 0.040
#: Kernel runs on each side of a body.
SAMPLES = 3

_EVENTS = 20_000
_PROCESSES = 64
_TABLE = {(index * 2654435761) & 0xFFFFFFFF: index & 255
          for index in range(1 << 17)}
_KEYS = list(_TABLE)
_ARRAY = np.arange(256, dtype=np.float64)


def _process(offset: int):
    total = 0.0
    while True:
        now = yield
        total += now * 1.0001 + offset


def kernel() -> int:
    """The fixed calibration work; returns a checksum of it."""
    processes = [_process(offset) for offset in range(_PROCESSES)]
    for process in processes:
        next(process)
    heap = [(0.0, index, index) for index in range(_PROCESSES)]
    heapq.heapify(heap)
    table, keys, array = _TABLE, _KEYS, _ARRAY
    seq, total = _PROCESSES, 0
    for _ in range(_EVENTS):
        now, _, target = heapq.heappop(heap)
        processes[target].send(now)
        seq += 1
        total += table[keys[(seq * 40503) % len(keys)]]
        if seq & 15 == 0:
            total += int(array[array > (seq & 255)].sum())
        heapq.heappush(
            heap, (now + (seq * 2654435761) % 1000 / 1000.0, seq, target))
    return total


def sample() -> list[float]:
    """Seconds of :data:`SAMPLES` kernel runs, in order.

    The garbage collector is off while they run: a collection the
    kernel's allocations set off would scan the workload's live objects,
    and make the kernel's time depend on the workload.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SAMPLES):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return times


def factor(times: list[float]) -> float:
    """Reference seconds per host second, from kernel times."""
    return REFERENCE_S / statistics.median(times)
