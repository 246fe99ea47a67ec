#!/usr/bin/env python
"""Cyclic-collector census of the Table-1 ingest on all four systems.

Ingests the GEMM, Conv2D, TTV and KNN datasets into one instance of
each ``PAPER_PROTOTYPE`` system (the oracle stores one copy per fetch
shape, as the scorecard does), keeps all four systems alive, and
prints the ingest wall time, the collector's passes and time as seen
by ``gc.callbacks``, and the objects the collector still tracks after
a full collection, by type.

Usage::

    PYTHONPATH=src python benchmarks/gc_census.py
"""

from __future__ import annotations

import gc
import time
from collections import Counter


def main() -> int:
    from repro.nvm.profiles import PAPER_PROTOTYPE
    from repro.systems import (BaselineSystem, HardwareNdsSystem,
                               OracleSystem, SoftwareNdsSystem)
    from repro.workloads.conv2d import Conv2dWorkload
    from repro.workloads.gemm import GemmWorkload
    from repro.workloads.knn import KnnWorkload
    from repro.workloads.ttv import TtvWorkload

    apps = [GemmWorkload(), Conv2dWorkload(), TtvWorkload(), KnnWorkload()]
    systems = [cls(PAPER_PROTOTYPE) for cls in (
        BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem, OracleSystem)]

    passes = []  # (generation, seconds) per collection
    started = [0.0]

    def on_collect(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            passes.append((info["generation"],
                           time.perf_counter() - started[0]))

    gc.collect()
    gc.callbacks.append(on_collect)
    start = time.perf_counter()
    for system in systems:
        for app in apps:
            plan = app.tile_plan()
            for ds in app.datasets():
                if isinstance(system, OracleSystem):
                    shapes = []
                    for fetch in plan:
                        if (fetch.dataset == ds.name
                                and fetch.extents not in shapes):
                            shapes.append(fetch.extents)
                    for shape in shapes or [ds.dims]:
                        system.ingest(ds.name, ds.dims, ds.element_size,
                                      tile=shape)
                else:
                    system.ingest(ds.name, ds.dims, ds.element_size)
    wall = time.perf_counter() - start
    gc.callbacks.remove(on_collect)

    full = [seconds for generation, seconds in passes if generation == 2]
    # a tuple holding a tuple is untracked only once its item is: two
    # passes settle every such record
    gc.collect()
    gc.collect()
    tracked = Counter(type(obj).__name__ for obj in gc.get_objects())
    print(f"ingest wall time     {wall:.2f} s")
    print(f"collector passes     {len(passes)} ({len(full)} full)")
    print(f"collector time       {sum(s for _, s in passes):.3f} s "
          f"({sum(full):.3f} s in full passes)")
    print(f"tracked after ingest {sum(tracked.values())}")
    for name, count in tracked.most_common(5):
        print(f"  {name:<20} {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
