"""Per-layer host-time tracing, installed from outside the program.

:class:`LayerTracer` wraps every public function and method defined in
the simulator's layer modules (see :data:`LAYERS`) and records one span
per call: name, start, end, parent span and request id. It accumulates,
per layer, the call count and the *self time* (span duration minus the
time covered by nested wrapped spans), and a few work counters taken
from wrapped-call arguments and results (see :data:`COUNTERS`).

Self time and counts are aggregated as spans close, so memory stays
flat however many calls a run makes. The first :data:`KEEP_SPANS` spans
are also kept in memory and written out by :meth:`SpanRecorder.write`
when the run ends.

A module-level function is patched in every loaded ``repro`` module
(and benchmark module) that holds it, so ``from x import f`` callers see
the wrapper too; methods are patched on their class.
:meth:`LayerTracer.uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: layer name -> module (or package, meaning every submodule)
LAYERS: Dict[str, str] = {
    "systems": "repro.systems",
    "runtime.scheduler": "repro.runtime.scheduler",
    "traffic": "repro.traffic",
    "core.stl": "repro.core.stl",
    "core.translator": "repro.core.translator",
    "core.allocator": "repro.core.allocator",
    "core.btree": "repro.core.btree",
    "core.gc": "repro.core.gc",
    "ftl.ssd": "repro.ftl.ssd",
    "ftl.mapping": "repro.ftl.mapping",
    "ftl.gc": "repro.ftl.gc",
    "nvm.flash": "repro.nvm.flash",
    "sim.resources": "repro.sim.resources",
    "host.io_engine": "repro.host.io_engine",
    "cache": "repro.cache",
    "cluster": "repro.cluster",
    "runtime.trace": "repro.runtime.trace",
    "obs.critical_path": "repro.obs.critical_path",
    "obs.monitor": "repro.obs.monitor",
}

#: calls that open a request: every span under one shares its id
REQUEST_ROOTS = frozenset({
    "repro.systems.base:StorageSystem.ingest",
    "repro.systems.base:StorageSystem.read_tile",
    "repro.systems.base:StorageSystem.write_tile",
    "repro.runtime.scheduler:RequestScheduler.execute",
})


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


#: wrapped function -> (counter, amount from (args, kwargs, result));
#: ``args[0]`` is ``self`` for methods
COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "repro.nvm.flash:FlashArray.read_pages": (
        "nvm.flash.pages_read",
        lambda a, k, r: len(_arg(a, k, 1, "ppas"))),
    "repro.nvm.flash:FlashArray.program_pages": (
        "nvm.flash.pages_programmed",
        lambda a, k, r: len(_arg(a, k, 1, "ppas"))),
    "repro.nvm.flash:FlashArray.erase_block": (
        "nvm.flash.blocks_erased", lambda a, k, r: 1),
    "repro.core.allocator:NdsAllocator.allocate": (
        "core.allocator.pages_allocated", lambda a, k, r: 1),
    "repro.core.allocator:NdsAllocator.allocate_raw": (
        "core.allocator.pages_allocated", lambda a, k, r: 1),
    "repro.ftl.mapping:PlaneAllocator.allocate_page": (
        "ftl.mapping.pages_allocated", lambda a, k, r: 1),
    "repro.core.gc:NdsGarbageCollector.collect": (
        "core.gc.pages_relocated", lambda a, k, r: r.units_relocated),
    "repro.ftl.gc:GarbageCollector.collect": (
        "ftl.gc.pages_relocated", lambda a, k, r: r.pages_relocated),
    "repro.runtime.scheduler:RequestScheduler.execute": (
        "runtime.scheduler.ops", lambda a, k, r: 1),
    "repro.cluster.pool:DevicePool.note_io": (
        "cluster.subops", lambda a, k, r: 1),
    # Timeline.reserve is the one non-inlined reservation entry point
    # (MultiTimeline delegates to it); inlined fast-path chains bypass
    # it and are not counted
    "repro.sim.resources:Timeline.reserve": (
        "sim.resources.reservations", lambda a, k, r: 1),
    "repro.sim.resources:Timeline.reserve_many": (
        "sim.resources.reservations", lambda a, k, r: len(r[0])),
}

#: spans kept in memory for :meth:`SpanRecorder.write`
KEEP_SPANS = 100_000


def self_times(spans: Sequence[Tuple[int, int, str, float, float]]
               ) -> Dict[str, float]:
    """Self time per name over complete spans ``(id, parent, name,
    start, end)`` (parent 0 = none): each span's duration minus the
    durations of its direct children. Wrapped calls nest strictly in
    one thread, so children never overlap."""
    child_time: Dict[int, float] = {}
    for _, parent, _, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: Dict[str, float] = {}
    for span_id, _, name, start, end in spans:
        own = (end - start) - child_time.get(span_id, 0.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


class SpanRecorder:
    """Streaming span sink: per-layer calls and self time, work
    counters, and the first ``keep`` spans verbatim."""

    def __init__(self, layers: Sequence[str], keep: int = KEEP_SPANS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.layers = list(layers)
        self.clock = clock
        self.keep = keep
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.counters: Dict[str, float] = {}
        self.names: List[str] = []
        #: kept spans: (id, parent, request, name index, start, end)
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        self.dropped = 0
        #: open frames: [span id, start, child time, request, in root]
        self._stack: List[list] = []
        self._next_span = 1
        self._next_request = 1

    def name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def enter(self, root: bool) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and (parent[4] or not root):
            request, in_root = parent[3], parent[4]
        else:
            request, in_root = self._next_request, root
            self._next_request += 1
        frame = [self._next_span, 0.0, 0.0, request, in_root]
        self._next_span += 1
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: list, layer: int, name: int) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        span_id, start, child, request, _ = frame
        duration = end - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child
        parent = 0
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, request, name, start, end))
        else:
            self.dropped += 1

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def write(self, path) -> None:
        """Write the kept spans as CSV (times in ns from the earliest
        kept start)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write(f"# spans kept {len(self.spans)} dropped "
                      f"{self.dropped}\n")
            out.write("id,parent,request,name,start_ns,end_ns\n")
            for span_id, parent, request, name, start, end in self.spans:
                out.write(f"{span_id},{parent},{request},{self.names[name]},"
                          f"{round((start - origin) * 1e9)},"
                          f"{round((end - origin) * 1e9)}\n")


def _layer_modules(target: str) -> List[object]:
    module = importlib.import_module(target)
    modules = [module]
    if hasattr(module, "__path__"):
        for info in pkgutil.iter_modules(module.__path__):
            modules.append(importlib.import_module(f"{target}.{info.name}"))
    return modules


class LayerTracer:
    """Installs span-recording wrappers on the layer modules."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, key: str, layer: int) -> Callable:
        recorder = self.recorder
        name = recorder.name_index(key)
        root = key in REQUEST_ROOTS
        counter = COUNTERS.get(key)
        enter, exit_ = recorder.enter, recorder.exit
        if counter is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = enter(root)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame, layer, name)
            return traced
        metric, amount = counter
        count = recorder.count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            frame = enter(root)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, layer, name)
            count(metric, amount(args, kwargs, result))
            return result
        return counted

    def install(self) -> "LayerTracer":
        functions: Dict[int, Tuple[Callable, Callable]] = {}
        for layer, target in enumerate(self.recorder.layers):
            for module in _layer_modules(LAYERS[target]):
                self._install_module(module, layer, functions)
        # patch every other place a wrapped module function was
        # imported by name, the benchmark's own modules included
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(
                    ("repro", "bench_", "__main__")):
                continue
            for attr, value in list(vars(module).items()):
                pair = functions.get(id(value))
                if pair is not None and pair[0] is value:
                    self._set(module, attr, pair[1])
        return self

    def _install_module(self, module, layer: int,
                        functions: Dict[int, Tuple[Callable, Callable]]
                        ) -> None:
        prefix = module.__name__
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__",
                                               None) != prefix:
                continue
            if inspect.isfunction(value):
                if not _wrappable(value):
                    continue
                wrapped = self._wrap(value, f"{prefix}:{attr}", layer)
                functions[id(value)] = (value, wrapped)
                self._set(module, attr, wrapped)
            elif inspect.isclass(value) and not issubclass(value,
                                                           BaseException):
                self._install_class(value, prefix, layer)

    def _install_class(self, cls, prefix: str, layer: int) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{prefix}:{cls.__qualname__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                if _wrappable(value.__func__):
                    self._set(cls, attr, type(value)(
                        self._wrap(value.__func__, key, layer)))
            elif inspect.isfunction(value) and _wrappable(value):
                self._set(cls, attr, self._wrap(value, key, layer))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _wrappable(fn: Callable) -> bool:
    """Generators and coroutines return before their work is done, so a
    span around the call would time nothing."""
    return not (inspect.isgeneratorfunction(fn)
                or inspect.iscoroutinefunction(fn))


def layer_metrics(recorder: SpanRecorder) -> Dict[str, Tuple[float, str]]:
    """``<layer>.calls`` and ``<layer>.self_s`` for every layer."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for index, layer in enumerate(recorder.layers):
        metrics[f"{layer}.calls"] = (recorder.calls[index], "count")
        metrics[f"{layer}.self_s"] = (recorder.self_s[index], "s")
    return metrics


__all__ = ["LAYERS", "REQUEST_ROOTS", "COUNTERS", "KEEP_SPANS",
           "self_times", "SpanRecorder", "LayerTracer", "layer_metrics"]
