"""Per-op latency attribution over the span tree (the paper's Fig. 2).

Every executed :class:`~repro.runtime.tileop.TileOp` has a parent span
on the ``"ops"`` resource and component spans (host issue/copy, link,
controller pipeline, FTL map, flash channel/bank...) recorded while it
ran. The analyzer partitions each op's ``[start, end)`` interval into
elementary segments at the component-span boundaries and attributes
each segment to the *dominant* active layer — the innermost (latest
started) span, with the deeper hardware layer winning ties. A segment
no component span covers is a stall under contention and is charged to
the layer the op acquires next; only segments with nothing after them
count as ``unattributed`` (scheduler/system glue at the op's tail).

Because the segments partition the interval exactly, the attributed
times of one op always sum to its end-to-end service latency — the
invariant ``repro report`` and the regression tests lean on. Queue
wait (submit → issue) is reported separately from the op span's
``queue_wait`` arg when the scheduler recorded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.trace import TraceRecorder, TraceSpan

__all__ = ["LAYERS", "classify_span", "span_device", "attribute_op",
           "OpAttribution", "CriticalPathReport", "critical_path",
           "device_layer_totals"]

#: attribution layers ordered host → device; the index doubles as the
#: tie-break priority (higher = deeper in the stack = wins ties)
LAYERS: Tuple[str, ...] = (
    "unattributed", "host_issue", "host_copy", "cache", "link",
    "controller", "stl", "ftl", "channel", "bank",
)

_DEPTH = {layer: index for index, layer in enumerate(LAYERS)}

#: span *name* → layer (names are the stable instrumentation contract)
_NAME_LAYERS = {
    "issue_io": "host_issue",
    "issue_work": "host_issue",
    "host_copy": "host_copy",
    "cache_copy": "cache",
    "link_transfer": "link",
    "nvme_command": "controller",
    "assemble": "controller",
    "crypt": "controller",
    "stl_translate": "stl",
    "stl_allocate": "stl",
    "ftl_map": "ftl",
    "nand_read": "bank",
    "read_retry": "bank",
    "nand_program": "bank",
    "page_out": "channel",
    "page_in": "channel",
    "page_out_retry": "channel",
}


def span_device(resource: str) -> Optional[int]:
    """Device id from a pooled resource name (``"d2:ch1/bk0"`` → 2),
    or ``None`` for single-device resources."""
    head, sep, _ = resource.partition(":")
    if sep and head.startswith("d") and head[1:].isdigit():
        return int(head[1:])
    return None


def _strip_device(resource: str) -> str:
    head, sep, rest = resource.partition(":")
    if sep and head.startswith("d") and head[1:].isdigit():
        return rest
    return resource


def classify_span(span: TraceSpan) -> str:
    """Attribution layer of one component span (name first, then the
    resource naming convention as a fallback for custom spans). A
    device-pool prefix (``"dN:"``) is stripped first so pooled runs
    classify identically to single-device runs."""
    layer = _NAME_LAYERS.get(span.name)
    if layer is not None:
        return layer
    resource = _strip_device(span.resource)
    if "/bk" in resource:
        return "bank"
    if resource.startswith("ch") and resource[2:].isdigit():
        return "channel"
    if resource.startswith("ctrl_") or resource == "aes_engine":
        return "controller"
    if resource == "device_ctrl":
        return "ftl"
    if resource == "link":
        return "link"
    if resource == "host_copy":
        return "host_copy"
    if resource.startswith("host"):
        return "host_issue"
    return "unattributed"


@dataclass
class OpAttribution:
    """Where one op's service time went."""

    op_id: int
    stream: str
    label: str
    start: float
    end: float
    queue_wait: float
    by_layer: Dict[str, float] = field(default_factory=dict)
    #: the elementary ``(start, end, layer)`` segments the sweep
    #: produced, in time order — they partition ``[start, end)``
    #: exactly, so any window clipped out of them inherits the same
    #: exact-sum discipline (the live monitor's windowed attribution)
    segments: List[Tuple[float, float, str]] = field(default_factory=list)

    @property
    def service_time(self) -> float:
        return self.end - self.start

    @property
    def attributed_total(self) -> float:
        """Sum over all layers — equals :attr:`service_time` exactly
        (the segments partition the op interval)."""
        return sum(self.by_layer.values())

    @property
    def dominant(self) -> str:
        """Layer that received the most time (deterministic ties:
        deeper layer wins)."""
        if not self.by_layer:
            return "unattributed"
        return max(self.by_layer.items(),
                   key=lambda item: (item[1], _DEPTH.get(item[0], -1)))[0]


def attribute_op(op_span: TraceSpan,
                 children: Sequence[TraceSpan]) -> OpAttribution:
    """Partition one op's interval over its component spans.

    A sweep over the clipped span boundaries yields elementary segments;
    each goes to the dominant active span — latest start wins (the
    innermost work at that moment), deeper layer then name break ties.
    A segment with no active span is a *stall*: under FCFS contention
    the op is blocked behind other tenants' reservations, so the stall
    is charged to the layer of the span the op acquires next (waiting
    for a bank counts as bank time). Only trailing gaps with nothing
    after them stay ``unattributed``.
    """
    lo, hi = op_span.start, op_span.end
    queue_wait = 0.0
    for name, value in op_span.args:
        if name == "queue_wait":
            queue_wait = value
    attribution = OpAttribution(
        op_id=op_span.op_id, stream=op_span.stream, label=op_span.name,
        start=lo, end=hi, queue_wait=float(queue_wait))
    if hi <= lo:
        return attribution
    # (start, depth, name, end, layer): the tuple order is the sweep's
    # sort and tie-break key, so sort and max need no key function
    clipped: List[Tuple[float, int, str, float, str]] = []
    for child in children:
        if child.instant:
            continue
        # the exact picks of max(child.start, lo) / min(child.end, hi)
        start = child.start
        start = lo if lo > start else start
        end = child.end
        end = hi if hi < end else end
        if end > start:
            layer = classify_span(child)
            clipped.append((start, _DEPTH[layer], child.name, end, layer))
    # starts before ends, as a signed zero keeps its first occurrence
    boundaries = sorted({lo, hi, *[c[0] for c in clipped],
                         *[c[3] for c in clipped]})
    by_layer = attribution.by_layer
    segments = attribution.segments
    # sort once by start so the active set can advance with the sweep
    clipped.sort()
    count = len(clipped)
    cursor = 0
    active: List[Tuple[float, int, str, float, str]] = []
    for seg_lo, seg_hi in zip(boundaries, boundaries[1:]):
        while cursor < count and clipped[cursor][0] <= seg_lo:
            active.append(clipped[cursor])
            cursor += 1
        active = [c for c in active if c[3] > seg_lo]
        if active:
            # dominant = latest-started; deeper layer, then name on ties
            layer = max(active)[4]
        elif cursor < count:
            # stall: blocked behind other ops' reservations — charge
            # the resource this op acquires next
            layer = clipped[cursor][4]
        else:
            layer = "unattributed"
        by_layer[layer] = by_layer.get(layer, 0.0) + (seg_hi - seg_lo)
        segments.append((seg_lo, seg_hi, layer))
    return attribution


@dataclass
class CriticalPathReport:
    """Aggregated "where time goes" breakdown for one trace."""

    ops: List[OpAttribution]

    @property
    def total_service_time(self) -> float:
        return sum(op.service_time for op in self.ops)

    @property
    def total_queue_wait(self) -> float:
        return sum(op.queue_wait for op in self.ops)

    def layer_totals(self, stream: Optional[str] = None) -> Dict[str, float]:
        """Seconds attributed to each layer (optionally one stream)."""
        totals: Dict[str, float] = {}
        for op in self.ops:
            if stream is not None and op.stream != stream:
                continue
            for layer, seconds in op.by_layer.items():
                totals[layer] = totals.get(layer, 0.0) + seconds
        return dict(sorted(totals.items()))

    def layer_shares(self, stream: Optional[str] = None) -> Dict[str, float]:
        totals = self.layer_totals(stream)
        grand = sum(totals.values())
        if grand <= 0:
            return {layer: 0.0 for layer in totals}
        return {layer: seconds / grand for layer, seconds in totals.items()}

    def dominant_counts(self) -> Dict[str, int]:
        """How many ops each layer dominated."""
        counts: Dict[str, int] = {}
        for op in self.ops:
            layer = op.dominant
            counts[layer] = counts.get(layer, 0) + 1
        return dict(sorted(counts.items()))

    def streams(self) -> List[str]:
        return sorted({op.stream for op in self.ops})


def critical_path(trace: TraceRecorder) -> CriticalPathReport:
    """Attribute every op span in ``trace`` (submission order)."""
    children_by_op: Dict[int, List[TraceSpan]] = {}
    op_spans: List[TraceSpan] = []
    for span in trace.spans:
        if span.instant:
            continue
        if span.resource == "ops":
            op_spans.append(span)
        else:
            children_by_op.setdefault(span.op_id, []).append(span)
    op_spans.sort(key=lambda s: (s.op_id, s.start))
    return CriticalPathReport(ops=[
        attribute_op(op, children_by_op.get(op.op_id, []))
        for op in op_spans])


def device_layer_totals(trace: TraceRecorder) -> Dict[str, Dict[str, float]]:
    """Busy seconds per (device, layer) over a pooled trace.

    Unlike :func:`critical_path`, which charges each op's wall-clock
    interval to dominant layers, this sums raw span durations per
    device — the per-device work inventory (overlapping spans on
    different devices both count, which is the point: it shows how the
    pool spread the work). Spans with no ``dN:`` prefix (host-side
    issue/copy, the host link on a single-device run) land under
    ``"host"``.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for span in trace.spans:
        if span.instant or span.resource == "ops":
            continue
        device = span_device(span.resource)
        key = "host" if device is None else f"d{device}"
        layer = classify_span(span)
        row = totals.setdefault(key, {})
        row[layer] = row.get(layer, 0.0) + (span.end - span.start)
    return {key: dict(sorted(row.items()))
            for key, row in sorted(totals.items())}
