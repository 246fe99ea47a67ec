"""Reference oracles for the attribution sweep and the window clip.

``attribute_op`` and ``clip`` are the straightforward forms of
:func:`repro.obs.critical_path.attribute_op` and ``Monitor._clip``
(dict-built args, keyed ``sort``/``max`` over ``(start, end, layer,
name)`` tuples, window indices through ``Monitor.window_of``). The
property tests require the production forms to give the same floats,
bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.obs.critical_path import (_DEPTH, OpAttribution,
                                     classify_span)
from repro.runtime.trace import TraceSpan


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
    args = dict(op_span.args)
    queue_wait = float(args.get("queue_wait", 0.0))
    attribution = OpAttribution(
        op_id=op_span.op_id, stream=op_span.stream, label=op_span.name,
        start=lo, end=hi, queue_wait=queue_wait)
    clipped = []
    for child in children:
        if child.instant:
            continue
        start = max(child.start, lo)
        end = min(child.end, hi)
        if end > start:
            clipped.append((start, end, classify_span(child), child.name))
    if hi <= lo:
        return attribution
    boundaries = sorted({lo, hi}
                        | {c[0] for c in clipped} | {c[1] for c in clipped})
    by_layer = attribution.by_layer
    # sort once by start so the active set can advance with the sweep
    clipped.sort(key=lambda c: (c[0], _DEPTH[c[2]], c[3], c[1]))
    cursor = 0
    active: List[Tuple[float, float, str, str]] = []
    for seg_lo, seg_hi in zip(boundaries, boundaries[1:]):
        while cursor < len(clipped) and clipped[cursor][0] <= seg_lo:
            active.append(clipped[cursor])
            cursor += 1
        active = [c for c in active if c[1] > seg_lo]
        if active:
            # dominant = latest-started; deeper layer, then name on ties
            winner = max(active,
                         key=lambda c: (c[0], _DEPTH[c[2]], c[3]))
            layer = winner[2]
        elif cursor < len(clipped):
            # stall: blocked behind other ops' reservations — charge
            # the resource this op acquires next
            layer = clipped[cursor][2]
        else:
            layer = "unattributed"
        by_layer[layer] = by_layer.get(layer, 0.0) + (seg_hi - seg_lo)
        attribution.segments.append((seg_lo, seg_hi, layer))
    return attribution


def clip(monitor, lo: float, hi: float, into: List[Dict[str, float]],
         key: str) -> None:
    """Add interval ``[lo, hi)`` into per-window buckets under
    ``key`` (overflow past the horizon lands in the last window)."""
    if hi <= lo:
        return
    width = monitor.window_seconds
    first = monitor.window_of(lo)
    last = monitor.window_of(hi)
    for index in range(first, last + 1):
        win_lo = index * width
        win_hi = win_lo + width if index < monitor.windows - 1 else hi
        overlap = min(hi, win_hi) - max(lo, win_lo)
        if overlap > 0:
            row = into[index]
            row[key] = row.get(key, 0.0) + overlap

