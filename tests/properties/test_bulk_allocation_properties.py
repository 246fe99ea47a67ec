"""Bulk allocation must leave the same state as the per-page sequence.

The batched write paths place a whole block access (NDS) or LPN run
(FTL) in one call and stop only at GC points. These properties drive
ingest plus overwrite churn that crosses the GC floors, once through
the bulk paths and once through the per-page reference, and compare
the allocation state itself — not only end times: every B-tree leaf's
pages and placement counters, the GC reverse table, every plane's free
space and append point, and the placement RNG.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sharding import ShardSpec
from repro.core.stl import SpaceTranslationLayer
from repro.ftl import BaselineSSD
from repro.nvm import TINY_TEST
from repro.nvm.flash import FlashArray
from repro.systems import HardwareNdsSystem, SoftwareNdsSystem

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: (name, dims, shard): a whole-array space and a sharded one
DATASETS = (("a", (64, 64), None),
            ("b", (32, 32), ShardSpec(channels=(2, 3))))


def _plane_state(plane):
    blocks = {block: (state.next_page, tuple(state.valid), state.erase_count)
              for block, state in plane.blocks.items()}
    return (plane.free_page_count(), plane.active_block, list(plane.free_blocks),
            blocks)


def _nds_state(stl):
    leaves = {}
    for space_id, index in stl.indexes.items():
        for entry in index.iter_entries():
            leaves[(space_id, entry.coord)] = (
                entry.pages, entry.channel_use, entry.bank_use,
                entry.bank_channels, entry.place_cols, entry.last_alloc)
    planes = {key: _plane_state(plane)
              for key, plane in stl.allocator.planes.items()}
    return leaves, stl.gc.reverse, planes, stl.allocator.rng.getstate()


def _op_sig(result):
    return result.start_time.hex(), result.end_time.hex()


def _churn(draw, datasets):
    """Overwrite churn: whole-dataset rewrites mixed with random tiles,
    around a device capacity of writes in total."""
    steps = []
    for _ in range(draw(st.integers(20, 28))):
        name, dims, _shard = datasets[draw(st.integers(0, len(datasets) - 1))]
        if draw(st.booleans()):
            origin, extents = (0,) * len(dims), dims
        else:
            origin = tuple(draw(st.integers(0, d - 1)) for d in dims)
            extents = tuple(draw(st.integers(1, d - o))
                            for d, o in zip(dims, origin))
        steps.append((name, origin, extents, draw(st.booleans())))
    return steps


@SETTINGS
@given(system_cls=st.sampled_from((SoftwareNdsSystem, HardwareNdsSystem)),
       seed=st.integers(0, 2**16), data=st.data())
def test_nds_systems_bulk_matches_per_page(system_cls, seed, data):
    bulk = system_cls(TINY_TEST, store_data=True)
    ref = system_cls(TINY_TEST, store_data=True)
    ref.stl.batch_fanout = False
    rng = np.random.default_rng(seed)
    t = 0.0
    for name, dims, shard in DATASETS:
        values = rng.standard_normal(dims).astype(np.float32)
        results = [system.ingest(name, dims, 4, data=values, start_time=t,
                                 shard=shard)
                   for system in (bulk, ref)]
        assert _op_sig(results[0]) == _op_sig(results[1])
        t = results[0].end_time
    for name, origin, extents, zeros in _churn(data.draw, DATASETS):
        values = np.zeros(extents, np.float32) if zeros else \
            rng.standard_normal(extents).astype(np.float32)
        results = [system.write_tile(name, origin, extents, data=values,
                                     start_time=t)
                   for system in (bulk, ref)]
        assert _op_sig(results[0]) == _op_sig(results[1])
        assert _nds_state(bulk.stl) == _nds_state(ref.stl)
        t = results[0].end_time
    for name, dims, _shard in DATASETS:
        reads = [system.read_tile(name, (0, 0), dims, start_time=t,
                                  with_data=True, dtype=np.float32)
                 for system in (bulk, ref)]
        assert np.array_equal(reads[0].data, reads[1].data)


def _stl(seed, bulk):
    flash = FlashArray(TINY_TEST.geometry, TINY_TEST.timing, store_data=True)
    stl = SpaceTranslationLayer(flash, gc_threshold=0.10, seed=seed,
                                elide_zero_pages=True)
    stl.batch_fanout = bulk
    spaces = {name: stl.create_space(dims, 4, shard=shard).space_id
              for name, dims, shard in DATASETS}
    return stl, spaces


@SETTINGS
@given(seed=st.integers(0, 2**16), data=st.data())
def test_stl_epoch_writes_with_elision_match_per_page(seed, data):
    """Multi-access regions take the epoch path (bulk placement across
    accesses); all-zero regions exercise §8 elision, which still draws
    targets and checks the floor for the pages it skips."""
    bulk, bulk_spaces = _stl(seed, True)
    ref, ref_spaces = _stl(seed, False)
    rng = np.random.default_rng(seed)
    t = 0.0
    for name, origin, extents, zeros in _churn(data.draw, DATASETS):
        shape = extents + (4,)
        payload = np.zeros(shape, np.uint8) if zeros else \
            rng.integers(0, 256, shape, dtype=np.uint8)
        a = bulk.write_region(bulk_spaces[name], origin, extents,
                              data=payload, start_time=t)
        b = ref.write_region(ref_spaces[name], origin, extents,
                             data=payload, start_time=t)
        assert _op_sig(a) == _op_sig(b)
        assert [(blk.completion_time.hex(), blk.pages, blk.gc_time.hex())
                for blk in a.blocks] == \
            [(blk.completion_time.hex(), blk.pages, blk.gc_time.hex())
             for blk in b.blocks]
        assert _nds_state(bulk) == _nds_state(ref)
        assert bulk.stats.counters == ref.stats.counters
        t = a.end_time


def _baseline_state(ssd):
    planes = {key: _plane_state(plane) for key, plane in ssd.ftl.planes.items()}
    return ssd.ftl.map, ssd.gc.reverse, planes


def _reference_write(ssd, lpns, start):
    """The per-LPN sequence: GC check (the float predicate), collect,
    allocate, note, program."""
    end = start
    for lpn in lpns:
        channel, bank = ssd.ftl.stripe_target(lpn)
        if ssd.ftl.free_fraction(channel, bank) < ssd.gc.threshold:
            end = max(end, ssd.gc.collect(channel, bank, end).end_time)
        ppa, old = ssd.ftl.allocate(lpn)
        ssd.gc.note_alloc(lpn, ppa, old)
        end = max(end, ssd.flash.program_pages([ppa], start).end_time)
    return end


@SETTINGS
@given(data=st.data())
def test_baseline_write_lpns_matches_per_lpn_calls(data):
    bulk = BaselineSSD(TINY_TEST, store_data=False)
    ref = BaselineSSD(TINY_TEST, store_data=False)
    span = data.draw(st.integers(64, 200))
    t = 0.0
    for _ in range(data.draw(st.integers(10, 30))):
        first = data.draw(st.integers(0, span - 1))
        count = data.draw(st.integers(1, 64))
        lpns = [lpn % span for lpn in range(first, first + count)]
        if data.draw(st.booleans()):
            lpns = data.draw(st.permutations(lpns))
        result = bulk.write_lpns(lpns, t)
        end = _reference_write(ref, lpns, t)
        assert result.end_time.hex() == end.hex()
        assert _baseline_state(bulk) == _baseline_state(ref)
        t = end
    assert bulk.gc.total_erased == ref.gc.total_erased


def test_churn_crosses_the_gc_floor():
    """The workloads above are dense enough that GC actually runs."""
    ssd = BaselineSSD(TINY_TEST, store_data=False)
    for step in range(30):
        ssd.write_lpns(list(range(200)), float(step))
    assert ssd.gc.total_erased > 0
    system = SoftwareNdsSystem(TINY_TEST, store_data=True)
    t = 0.0
    for name, dims, shard in DATASETS:
        t = system.ingest(name, dims, 4, start_time=t, shard=shard).end_time
    for step in range(20):
        name, dims, _shard = DATASETS[step % 2]
        t = system.write_tile(name, (0, 0), dims, start_time=t).end_time
    assert system.stl.gc.total_erased > 0
