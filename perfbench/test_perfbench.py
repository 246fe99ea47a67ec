"""Tests of the benchmark's own pieces.

Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_speed  # noqa: E402
from bench_stats import (DigestGroups, canonical, median_total,  # noqa: E402
                         mismatched_ops, percentile, quartiles)
from bench_trace import (LAYERS, LayerTracer, SpanRecorder,  # noqa: E402
                         self_times)
from bench_workloads import (IterationSample, PaperTiles, Serve,  # noqa: E402
                             ServeObserved)
from repro.workloads import GemmWorkload, TtvWorkload  # noqa: E402


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
#   a [0, 10]
#   +- b [1, 4]
#   |  +- c [2, 3]
#   +- d [5, 9]
#   e [12, 13]
NESTED = [(1, 0, "a", 0.0, 10.0), (2, 1, "b", 1.0, 4.0),
          (3, 2, "c", 2.0, 3.0), (4, 1, "d", 5.0, 9.0),
          (5, 0, "e", 12.0, 13.0)]


def test_self_times_subtract_direct_children_only():
    assert self_times(NESTED) == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0,
                                  "e": 1.0}


def test_self_times_sum_to_top_level_span_time():
    assert sum(self_times(NESTED).values()) == 11.0


def test_recorder_streams_the_same_self_times():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 12.0, 13.0])
    recorder = SpanRecorder(["x", "y"], clock=lambda: next(ticks))
    names = {name: recorder.name_index(name) for name in "abcde"}
    layer = {"a": 0, "b": 1, "c": 0, "d": 1, "e": 0}

    def call(name, *children):
        frame = recorder.enter(root=name == "b")
        for child in children:
            child()
        recorder.exit(frame, layer[name], names[name])

    call("a", lambda: call("b", lambda: call("c")), lambda: call("d"))
    call("e")
    assert recorder.self_s == [3.0 + 1.0 + 1.0, 2.0 + 4.0]
    assert recorder.calls == [3, 2]
    kept = [(span_id, parent, recorder.names[name], start, end)
            for span_id, parent, _, name, start, end in recorder.spans]
    assert sorted(kept) == NESTED
    requests = {recorder.names[name]: request
                for _, _, request, name, _, _ in recorder.spans}
    # b is a request root under a non-root span: it opens a request
    # that c shares; d stays in a's; e is a new top-level request
    assert requests["b"] == requests["c"] != requests["a"]
    assert requests["d"] == requests["a"]
    assert len({requests["a"], requests["b"], requests["e"]}) == 3


def test_recorder_drops_beyond_keep_but_still_counts():
    recorder = SpanRecorder(["x"], keep=2)
    name = recorder.name_index("f")
    for _ in range(5):
        recorder.exit(recorder.enter(root=False), 0, name)
    assert len(recorder.spans) == 2 and recorder.dropped == 3
    assert recorder.calls == [5]


# ----------------------------------------------------------------------
# percentiles and digests
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile(list(range(199)), 0.95) is None
    assert percentile(list(range(200)), 0.95) == 189
    assert percentile(list(range(19)), 0.50) is None
    assert percentile(list(reversed(range(20))), 0.50) == 9


def test_percentile_rejects_bad_fraction():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 1.0)


def test_median_total_sums_each_groups_median():
    assert median_total([{"a": 2.0, "b": 5.0}, {"a": 3.0, "b": 1.0},
                         {"a": 9.0, "b": 2.0}]) == 5.0


# ----------------------------------------------------------------------
# scaling to the reference host speed
# ----------------------------------------------------------------------
def test_each_segment_scales_by_its_own_probes(monkeypatch):
    probes = iter([1.0, 3.0, 0.5])
    monkeypatch.setattr(bench_speed, "probe", lambda: next(probes))
    monkeypatch.setattr(bench_speed, "REFERENCE_S", 1.0)
    sample = IterationSample()
    sample.boundary()
    sample.reads.extend([2.0, 4.0])
    sample.charge(sample.request_s, "g", 6.0)
    sample.boundary()
    sample.writes.append(7.0)
    sample.charge(sample.ingest_s, "g", 7.0)
    sample.boundary()
    sample.scale_to_reference()
    # probes 1 and 3 average 2, probes 3 and 0.5 average 1.75
    assert list(sample.reads) == [1.0, 2.0]
    assert sample.request_s == {"g": 3.0}
    assert list(sample.writes) == [4.0]
    assert sample.ingest_s == {"g": 4.0}


def test_a_group_stays_in_one_segment(monkeypatch):
    monkeypatch.setattr(bench_speed, "probe", lambda: 1.0)
    sample = IterationSample()
    sample.boundary()
    sample.charge(sample.request_s, "g", 1.0)
    sample.boundary()
    with pytest.raises(ValueError):
        sample.charge(sample.request_s, "g", 1.0)


def test_probe_times_fixed_work():
    assert bench_speed.reference_work() == bench_speed.reference_work()
    assert 0.0 < bench_speed.probe() < 1.0


def test_quartiles_of_one_sample():
    assert quartiles([2.5]) == [2.5, 2.5, 2.5]


def test_canonical_floats_are_exact():
    assert canonical({"t": (0.1, 2)}) == {"t": [(0.1).hex(), 2]}


def test_mismatch_charges_every_op_of_a_group():
    groups = DigestGroups()
    groups.fold("a", "1", 3)
    groups.fold("b", "2", 4)
    digests = groups.digests()
    assert mismatched_ops(digests, groups.ops, digests) == 0
    assert mismatched_ops(digests, groups.ops,
                          dict(digests, b="0" * 16)) == 4
    assert mismatched_ops(digests, groups.ops,
                          dict(digests, c="0" * 16)) == 1


# ----------------------------------------------------------------------
# digest equality over shrunken workloads
# ----------------------------------------------------------------------
class SmallPaperTiles(PaperTiles):
    def applications(self):
        return [GemmWorkload(n=512, tile=128, max_tiles=6),
                TtvWorkload(rows=32, cols=32, depth=256, tile_rows=16,
                            tile_cols=16, tile_depth=128, max_tiles=4)]


class SmallServe(Serve):
    system_names = ("baseline", "software-nds")
    rates = (4000.0,)
    horizon = 0.005


class SmallServeObserved(ServeObserved):
    system_names = ("hardware-nds",)
    rates = (16000.0,)
    horizon = 0.005


def _run(workload):
    sample = IterationSample()
    workload.run(sample)
    assert sample.errors == 0
    assert sample.ops > 0
    return sample


@pytest.mark.parametrize("cls", [SmallPaperTiles, SmallServe,
                                 SmallServeObserved])
def test_two_runs_give_equal_digests(cls):
    first = _run(cls(7))
    second = _run(cls(7))
    assert first.groups.digests() == second.groups.digests()
    assert first.ops == second.ops
    assert len(first.reads) == len(second.reads) > 0


def test_seed_changes_the_digest():
    assert (_run(SmallServe(7)).groups.digests()
            != _run(SmallServe(8)).groups.digests())


@pytest.mark.parametrize("cls", [SmallPaperTiles, SmallServeObserved])
def test_tracing_leaves_outputs_unchanged(cls):
    plain = _run(cls(7))
    recorder = SpanRecorder(list(LAYERS))
    with LayerTracer(recorder):
        traced = _run(cls(7))
    assert traced.groups.digests() == plain.groups.digests()
    # pool members run their sub-ops through their own schedulers
    assert recorder.counters["runtime.scheduler.ops"] >= traced.ops
    assert all(calls > 0 for layer, calls in
               zip(recorder.layers, recorder.calls)
               if layer in ("systems", "nvm.flash", "sim.resources"))


def test_tracer_restores_every_original():
    import importlib

    from repro.sim.resources import Timeline
    module = importlib.import_module("repro.obs.critical_path")
    original_fn = module.attribute_op
    original_method = Timeline.reserve
    tracer = LayerTracer(SpanRecorder(list(LAYERS))).install()
    try:
        assert module.attribute_op is not original_fn
        assert Timeline.reserve is not original_method
        # patched where callers imported it by name, too
        import repro.obs.monitor as monitor
        if hasattr(monitor, "attribute_op"):
            assert monitor.attribute_op is module.attribute_op
    finally:
        tracer.uninstall()
    assert module.attribute_op is original_fn
    assert Timeline.reserve is original_method
