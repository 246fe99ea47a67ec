"""The benchmark's three workloads.

Each workload is built from ``--seed`` alone; the simulator receives
only the generated inputs. One call of :meth:`run` is one iteration: it
builds fresh systems (construction is untimed, ingest is timed), runs
the timed work, and records host-time samples plus a digest of every
simulated output into an :class:`IterationSample`. Each group of ops
runs between two host-speed probes, and its host times are scaled to
the reference speed (see :mod:`bench_speed`).

``paper_tiles``
    Closed loop, one caller, ``PAPER_PROTOTYPE``, all four systems.
    Ingests the Table-1 datasets of GEMM, Conv2D, TTV and KNN, reads
    each tile plan twice in a seeded order (the second pass finds the
    translator memo warm) and, on the second pass, writes back every
    other tile of the plan right after reading it: the seed sets the
    order, not which tiles are written. Each call starts when the previous one completes.
``serve``
    Open-loop Poisson embedding serving on ``TINY_TEST`` with the
    ``repro loadtest`` default table (256 rows x 16 fp32, zipf 1.05,
    25% updates): baseline, software-nds and hardware-nds, one device
    each, at 2 000 and 8 000 req/s, with nothing observing the run.
``serve_observed``
    The same traffic on a 4-device pool of each system at 4x the
    rates, with a write-back DRAM tier smaller than the table, a trace
    recorder and an SLO monitor; each cell ends with critical-path
    attribution and the monitor report.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from array import array
from typing import Dict, List, Tuple

import bench_speed
import numpy as np
from bench_stats import DigestGroups
from repro.analysis.loadline_sweep import arrival_process, default_workload
from repro.cache.config import CacheConfig
from repro.nvm.profiles import PAPER_PROTOTYPE, TINY_TEST
from repro.obs.critical_path import critical_path
from repro.obs.monitor import Monitor
from repro.obs.report import SYSTEM_FACTORIES
from repro.obs.slo import SloPolicy
from repro.runtime.trace import TraceRecorder
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)
from repro.traffic.injector import OpenLoopInjector, TrafficStream
from repro.workloads import (Conv2dWorkload, GemmWorkload, KnnWorkload,
                             TtvWorkload)

#: the seed whose digests are recorded, and a held-out seed recorded
#: for checking performance claims on inputs not used while tuning
DEFAULT_SEED = 97
HELD_OUT_SEED = 1009

clock = time.perf_counter


class IterationSample:
    """Host-time samples and output digests of one iteration.

    Every iteration of a workload does identical work in identical
    order, so a group's host seconds can be compared across iterations.

    Host times are recorded in segments: :meth:`boundary` probes the
    host's speed and starts the next segment, and
    :meth:`scale_to_reference` scales each segment's times by the
    probes on either side of it.
    """

    def __init__(self) -> None:
        #: host seconds of each read / write op, in issue order
        self.reads = array("d")
        self.writes = array("d")
        self.ingest_bytes = 0
        self.requests = 0
        #: host seconds of timed ingest and request work per group
        self.ingest_s: Dict[str, float] = {}
        self.request_s: Dict[str, float] = {}
        #: simulated ops attempted, and ops lost to exceptions
        self.ops = 0
        self.errors = 0
        self.groups = DigestGroups()
        #: observed-serving reports summed over cells
        self.cache = {"hits": 0, "misses": 0, "writebacks": 0}
        self.trace_spans = 0
        #: host-speed probe seconds; segment k lies between probes k
        #: and k + 1
        self.probes: List[float] = []
        #: (reads, writes) recorded when each probe was taken
        self._cuts: List[Tuple[int, int]] = []
        #: the segment each (table, group) was charged in
        self._segment: Dict[Tuple[int, str], int] = {}

    def fail(self, group: str) -> None:
        """Charge the exception being handled as one failed op of
        ``group``; the group's ops done so far fail its digest."""
        print(f"perfbench: {group} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        self.errors += 1

    def charge(self, table: Dict[str, float], group: str,
               seconds: float) -> None:
        segment = len(self.probes) - 1
        if self._segment.setdefault((id(table), group), segment) != segment:
            raise ValueError(f"group {group} charged in two segments")
        table[group] = table.get(group, 0.0) + seconds

    def boundary(self) -> None:
        """End the current segment with a host-speed probe; the ops that
        follow belong to the next segment."""
        self._cuts.append((len(self.reads), len(self.writes)))
        self.probes.append(bench_speed.probe())

    def scale_to_reference(self) -> None:
        """Scale every host time by its segment's factor
        (:func:`bench_speed.scale`); call once, after the last
        :meth:`boundary`."""
        factors = [bench_speed.scale(before, after)
                   for before, after in zip(self.probes, self.probes[1:])]
        reads, writes = np.frombuffer(self.reads), np.frombuffer(self.writes)
        for factor, (r0, w0), (r1, w1) in zip(factors, self._cuts,
                                              self._cuts[1:]):
            reads[r0:r1] *= factor
            writes[w0:w1] *= factor
        if self._cuts and self._cuts[-1] != (len(reads), len(writes)):
            raise ValueError("ops recorded after the last boundary")
        for table in (self.ingest_s, self.request_s):
            for group in table:
                table[group] *= factors[self._segment[id(table), group]]


class Workload:
    """:meth:`run` is one iteration: the subclass's ``iterate`` marks a
    :meth:`IterationSample.boundary` before each group of ops."""

    def run(self, sample: IterationSample) -> None:
        self.iterate(sample)
        sample.boundary()
        sample.scale_to_reference()


class PaperTiles(Workload):
    name = "paper_tiles"
    systems = (BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem,
               OracleSystem)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.apps = self.applications()
        #: per app, the tile order of each of the two passes, as
        #: (index in the tile plan, fetch) pairs
        self.passes: List[Tuple[list, list]] = []
        for app in self.apps:
            orders = []
            for _ in range(2):
                order = list(enumerate(app.tile_plan()))
                rng.shuffle(order)
                orders.append(order)
            self.passes.append(tuple(orders))

    def applications(self) -> list:
        """The Table-1 applications at their default (paper-derived)
        sizes."""
        return [GemmWorkload(), Conv2dWorkload(), TtvWorkload(),
                KnnWorkload()]

    def setup(self) -> list:
        return [cls(PAPER_PROTOTYPE) for cls in self.systems]

    def iterate(self, sample: IterationSample) -> None:
        for system in self.setup():
            self._run_system(system, sample)

    def _ingests(self, system, app, orders):
        """(dataset, params) ingest calls; the oracle stores one
        tile-major copy per distinct fetch shape."""
        for ds in app.datasets():
            if isinstance(system, OracleSystem):
                shapes = []
                for _, fetch in orders[0]:
                    if fetch.dataset == ds.name and fetch.extents not in shapes:
                        shapes.append(fetch.extents)
                for shape in shapes or [ds.dims]:
                    yield ds, {"tile": shape}
            else:
                yield ds, {}

    def _run_system(self, system, sample: IterationSample) -> None:
        groups = sample.groups
        now = 0.0
        for app, orders in zip(self.apps, self.passes):
            group = f"{system.name}/{app.name}/ingest"
            sample.boundary()
            done = 0
            try:
                for ds, params in self._ingests(system, app, orders):
                    start = clock()
                    result = system.ingest(ds.name, ds.dims, ds.element_size,
                                           start_time=now, **params)
                    sample.charge(sample.ingest_s, group, clock() - start)
                    sample.ingest_bytes += ds.total_bytes
                    now = result.end_time
                    groups.fold(group, now.hex(), 1)
                    done += 1
            except Exception:
                sample.fail(group)
                return
            finally:
                sample.ops += done
        for second in (False, True):
            for app, orders in zip(self.apps, self.passes):
                group = f"{system.name}/{app.name}/pass{int(second) + 1}"
                sample.boundary()
                done = 0
                try:
                    for index, fetch in orders[second]:
                        start = clock()
                        result = system.read_tile(fetch.dataset, fetch.origin,
                                                  fetch.extents,
                                                  start_time=now)
                        elapsed = clock() - start
                        sample.reads.append(elapsed)
                        sample.charge(sample.request_s, group, elapsed)
                        now = result.end_time
                        groups.fold(group, now.hex(), 1)
                        done += 1
                        if second and index % 2 == 0:
                            start = clock()
                            result = system.write_tile(
                                fetch.dataset, fetch.origin, fetch.extents,
                                start_time=now)
                            elapsed = clock() - start
                            sample.writes.append(elapsed)
                            sample.charge(sample.request_s, group, elapsed)
                            now = result.end_time
                            groups.fold(group, now.hex(), 1)
                            done += 1
                except Exception:
                    sample.fail(group)
                    return
                finally:
                    sample.ops += done
                    sample.requests += done


class Serve(Workload):
    name = "serve"
    system_names = ("baseline", "software-nds", "hardware-nds")
    rates = (2000.0, 8000.0)
    devices = 1
    observed = False
    #: simulated seconds of traffic per cell, as in ``repro loadtest``
    horizon = 0.05
    admission_queue = 64

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.table = default_workload(seed=rng.randrange(2 ** 31))
        self.arrival_seed = rng.randrange(2 ** 31)

    def _system(self, name: str):
        return SYSTEM_FACTORIES[name](TINY_TEST)

    def setup(self, sample=None) -> list:
        """Build and ingest one system per (system, rate) cell; the
        ingest is timed into ``sample`` when given."""
        cells = []
        for name in self.system_names:
            for rate in self.rates:
                group = f"{name}@{rate:g}"
                system = self._system(name)
                start = clock()
                for ds in self.table.datasets():
                    system.ingest(ds.name, ds.dims, ds.element_size)
                    if sample is not None:
                        sample.ingest_bytes += ds.total_bytes
                if sample is not None:
                    sample.charge(sample.ingest_s, group, clock() - start)
                system.reset_time()
                cells.append((group, rate, system))
        return cells

    def iterate(self, sample: IterationSample) -> None:
        group = f"{self.name}/setup"
        sample.boundary()
        try:
            cells = self.setup(sample)
        except Exception:
            sample.fail(group)
            return
        for group, rate, system in cells:
            sample.boundary()
            ends: List[float] = []
            try:
                self._serve(system, rate, sample, group, ends)
            except Exception:
                sample.fail(group)
            finally:
                sample.ops += len(ends)

    def _serve(self, system, rate: float, sample: IterationSample,
               group: str, ends: List[float]) -> None:
        scheduler = system.scheduler
        execute = scheduler.execute
        reads, writes = sample.reads, sample.writes

        def timed_execute(op):
            start = clock()
            done = execute(op)
            (reads if op.kind == "read" else writes).append(clock() - start)
            ends.append(op.complete_time)
            return done

        trace = TraceRecorder() if self.observed else None
        monitor = (Monitor(slo=SloPolicy(latency_target=500e-6,
                                         target_fraction=0.999),
                           horizon=self.horizon)
                   if self.observed else None)
        stream = TrafficStream(
            "serve", arrival_process("poisson", rate, self.arrival_seed),
            self.table.request_factory(),
            admission_queue=self.admission_queue)
        scheduler.execute = timed_execute
        try:
            start = clock()
            result = OpenLoopInjector(system, [stream], horizon=self.horizon,
                                      trace=trace,
                                      marks=8 if self.observed else 0,
                                      monitor=monitor).run()
            if self.observed:
                layers = critical_path(trace).layer_totals()
                report = monitor.report(trace=trace)
            sample.charge(sample.request_s, group, clock() - start)
        finally:
            del scheduler.execute
        sample.requests += result.completed
        groups = sample.groups
        groups.fold(group, ",".join(end.hex() for end in ends), len(ends))
        groups.fold_json(group, result.streams["serve"].to_dict())
        if self.observed:
            groups.fold_json(group, {"layers": layers, "monitor": report})
            cache = system.cache_report()
            for key in sample.cache:
                sample.cache[key] += cache[key]
            sample.trace_spans += len(trace.spans)


class ServeObserved(Serve):
    name = "serve_observed"
    rates = (8000.0, 32000.0)
    devices = 4
    observed = True
    #: per-member DRAM tier: 2 KiB x 4 devices = 8 KiB, half the
    #: 16 KiB table, so the write-back tier evicts and writes back
    cache_bytes_per_device = 2048

    def _system(self, name: str):
        return SYSTEM_FACTORIES[name](
            TINY_TEST, devices=self.devices,
            cache=CacheConfig(capacity_bytes=self.cache_bytes_per_device,
                              write_back=True))


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in
                              (PaperTiles, Serve, ServeObserved)}
