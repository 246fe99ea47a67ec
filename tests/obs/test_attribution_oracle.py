"""The attribution sweep and the window clip against their reference
forms (``attribution_oracle``): random child sets with equal starts,
zero-length and out-of-interval children, instants, nested deeper
layers and signed-zero edges must give the same ``by_layer``,
``segments``, windowed attribution and device series, compared under
``float.hex()`` so ``-0.0`` and ``0.0`` are told apart."""

from __future__ import annotations

import importlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.critical_path import attribute_op
from repro.obs.monitor import Monitor
from repro.runtime.trace import TraceRecorder, TraceSpan

from tests.obs import attribution_oracle as oracle

#: the module, not the function ``repro.obs`` re-exports under its name
critical_path_module = importlib.import_module("repro.obs.critical_path")

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: a small value pool makes equal starts, shared boundaries and
#: signed-zero collisions common; the floats add irregular edges
TIMES = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0,
                     4.0]),
    st.floats(-1.0, 5.0, allow_nan=False, allow_infinity=False))

#: (name, resource): named layers of every depth, a name-vs-resource
#: conflict, resource fallbacks (pooled and single-device) and an
#: unclassified custom span
CHILD_KINDS = [
    ("issue_io", "host_issue"), ("host_copy", "host_copy"),
    ("cache_copy", "host_copy"), ("link_transfer", "link"),
    ("nvme_command", "ctrl_cmd"), ("stl_translate", "host_issue"),
    ("ftl_map", "device_ctrl"), ("page_out", "d1:ch3"),
    ("nand_read", "d0:ch0/bk1"), ("nand_program", "ch1/bk0"),
    ("custom", "d2:ch1/bk0"), ("custom", "ch2"), ("custom", "ctrl_x"),
    ("custom", "device_ctrl"), ("custom", "mystery"),
]

QUEUE_WAIT_ARGS = st.sampled_from([
    (), (("queue_wait", 0.5),), (("queue_wait", 2),),
    (("queue_wait", -0.0),), (("kind", "read"), ("queue_wait", 1e-6)),
    (("queue_wait", 1.0), ("submit", 0.0)),
])


@st.composite
def child_spans(draw, op_id=0):
    name, resource = draw(st.sampled_from(CHILD_KINDS))
    start = draw(TIMES)
    end = draw(st.one_of(TIMES, st.just(start)))
    instant = draw(st.booleans()) and draw(st.booleans())
    return TraceSpan(name=name, resource=resource, stream="s",
                     start=start, end=start if instant else end,
                     op_id=op_id, instant=instant)


def _hex(value):
    """Floats as ``float.hex()``, containers recursively, dict key
    order kept."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, _hex(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_hex(item) for item in value]
    return value


def _attribution_view(attribution):
    return (attribution.op_id, attribution.stream, attribution.label,
            _hex(attribution.start), _hex(attribution.end),
            _hex(attribution.queue_wait), _hex(attribution.by_layer),
            _hex(attribution.segments))


@SETTINGS
@given(lo=TIMES, hi=TIMES, args=QUEUE_WAIT_ARGS,
       children=st.lists(child_spans(), max_size=12))
def test_attribute_op_matches_the_reference(lo, hi, args, children):
    op = TraceSpan(name="read:t", resource="ops", stream="s", start=lo,
                   end=hi, op_id=0, args=args)
    assert (_attribution_view(attribute_op(op, children))
            == _attribution_view(oracle.attribute_op(op, children)))


@SETTINGS
@given(lo=TIMES, width=st.floats(0.0, 3.0, allow_nan=False),
       children=st.lists(child_spans(), min_size=1, max_size=12),
       repeat=st.integers(1, 3))
def test_equal_starts_and_nested_layers(lo, width, children, repeat):
    """Every child shares the op's start (the tie-heavy case), and each
    child appears ``repeat`` times."""
    hi = lo + width
    pinned = [TraceSpan(name=c.name, resource=c.resource, stream="s",
                        start=lo, end=c.end, op_id=0)
              for c in children] * repeat
    op = TraceSpan(name="write:t", resource="ops", stream="s", start=lo,
                   end=hi, op_id=0)
    assert (_attribution_view(attribute_op(op, pinned))
            == _attribution_view(oracle.attribute_op(op, pinned)))


@st.composite
def traces(draw):
    trace = TraceRecorder()
    for op_id in range(draw(st.integers(0, 5))):
        lo = draw(TIMES)
        hi = draw(TIMES)
        trace.spans.append(TraceSpan(
            name=f"op{op_id}", resource="ops", stream="s", start=lo,
            end=hi, op_id=op_id, args=draw(QUEUE_WAIT_ARGS)))
        trace.spans.extend(draw(st.lists(child_spans(op_id), max_size=6)))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(TIMES)
        duration = draw(st.floats(0.0, 2.0, allow_nan=False))
        trace.spans.append(TraceSpan(
            name="gc", resource=draw(st.sampled_from(["d0:gc", "gc"])),
            stream="s", start=start + duration, end=start + duration,
            args=(("duration", duration), ("start", start)),
            instant=True))
    if draw(st.booleans()):
        trace.spans.append(TraceSpan(
            name="dirty_bytes", resource="counters", stream="main",
            start=1.0, end=1.0, args=(("dirty_bytes", 64),),
            instant=True, counter=True))
    return trace


@SETTINGS
@given(trace=traces(), windows=st.integers(1, 9),
       horizon=st.sampled_from([0.3, 1.0, 2.5, 3.0, 7.0]))
def test_windowed_attribution_and_device_series_match(trace, windows,
                                                      horizon):
    monitor = Monitor(windows=windows, horizon=horizon)
    got = (monitor.windowed_attribution(trace),
           monitor.device_series(trace))
    with mock.patch.object(critical_path_module, "attribute_op",
                           oracle.attribute_op), \
            mock.patch.object(Monitor, "_clip", oracle.clip):
        want = (monitor.windowed_attribution(trace),
                monitor.device_series(trace))
    assert _hex(got) == _hex(want)


def _child(name, resource, start, end):
    return TraceSpan(name=name, resource=resource, stream="s",
                     start=start, end=end, op_id=0)


@pytest.mark.parametrize("lo,children,first_edges", [
    # a child starting at -0.0 inside an op starting at 0.0: the edge
    # keeps the op's zero
    (0.0, [_child("nand_read", "ch0/bk0", -0.0, 0.5),
           _child("link_transfer", "link", 0.5, -0.0)], ["0x0.0p+0"]),
    # one child ends at -0.0 where a later one starts at 0.0: starts
    # are collected before ends, so the edge is the start's 0.0
    (-1.0, [_child("nand_read", "ch0/bk0", -1.0, -0.0),
            _child("link_transfer", "link", 0.0, 0.5)],
     ["-0x1.0000000000000p+0", "0x0.0p+0"]),
])
def test_signed_zero_edges_keep_their_first_occurrence(lo, children,
                                                       first_edges):
    op = TraceSpan(name="read:t", resource="ops", stream="s", start=lo,
                   end=1.0, op_id=0)
    got = attribute_op(op, children)
    assert _attribution_view(got) == _attribution_view(
        oracle.attribute_op(op, children))
    assert [seg[0].hex() for seg in got.segments][:len(first_edges)] \
        == first_edges
