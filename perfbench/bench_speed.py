"""Host-speed probe: a fixed piece of reference work, timed between the
benchmark's groups of ops.

On a shared host the same code runs up to about twice as fast in one
phase as in another, for minutes at a time, because other tenants
contend for the cores and caches. A host second is then not a fixed
amount of the program's work. Each group of ops is therefore timed
between two probes, and its host time is scaled by
``REFERENCE_S / mean(probe before, probe after)``: the time the group
would have taken on a host where the probe takes :data:`REFERENCE_S`.
The probe uses only the standard library, so a change to the simulator
never changes it; a simulator that does twice the work still reads
twice the time.

The probe mixes what the simulator spends its time on: integer and
float arithmetic in an interpreted loop, small objects with attribute
access and method calls, dict lookups and a heap.
"""

from __future__ import annotations

import gc
import heapq
import time

#: probe seconds that the scaled times refer to: about the probe's
#: median time on the 2-vCPU host the benchmark was written on
REFERENCE_S = 0.004

clock = time.perf_counter


class _Item:
    __slots__ = ("key", "weight", "cost")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.cost = key * 0.5 + weight

    def scaled(self, factor: float) -> float:
        return self.cost * factor + self.weight


def reference_work(rounds: int = 1500) -> float:
    """The fixed reference work; returns a checksum so that nothing is
    optimised away."""
    table = {}
    heap = []
    total = 0.0
    count = 0
    for i in range(rounds):
        item = _Item(i, 1.5)
        table[i & 255] = item
        total += table.get((i * 7) & 255, item).scaled(0.25)
        heapq.heappush(heap, (total % 97.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        for j in range(8):
            count += (i * j) % 7
    return total + count


def probe() -> float:
    """Host seconds of one round of reference work, with the garbage
    collector paused so the program's heap does not enter the time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        reference_work()
        return clock() - start
    finally:
        if was_enabled:
            gc.enable()


def scale(probe_before: float, probe_after: float) -> float:
    """Factor from host seconds between two probes to reference
    seconds."""
    return 2.0 * REFERENCE_S / (probe_before + probe_after)
