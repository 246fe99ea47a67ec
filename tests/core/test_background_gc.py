"""Tests for background garbage collection (§6.1)."""

from dataclasses import asdict

import numpy as np
from repro.core import SpaceTranslationLayer
from repro.core.api import array_to_bytes, bytes_to_array
from repro.core.gc import NdsGcResult
from repro.nvm import TINY_TEST, FlashArray, Geometry, NvmTiming
from repro.systems import SoftwareNdsSystem


def _make_stl():
    geometry = Geometry(channels=2, banks_per_channel=2, blocks_per_bank=6,
                        pages_per_block=4, page_size=64)
    timing = NvmTiming(t_read=1e-6, t_program=5e-6, t_erase=20e-6,
                       channel_bandwidth=100e6)
    flash = FlashArray(geometry, timing, store_data=True)
    return SpaceTranslationLayer(flash, gc_threshold=0.25)


def _churn(stl, space_id, rounds, start=0.0):
    data = np.arange(64, dtype=np.int16).reshape(8, 8)
    now = start
    for round_id in range(rounds):
        result = stl.write(space_id, (0, 0), (8, 8),
                           data=array_to_bytes(data + round_id),
                           start_time=now)
        now = result.end_time
    return now


class TestBackgroundCollection:
    def test_background_gc_reclaims_space(self):
        stl = _make_stl()
        space = stl.create_space((8, 8), 2)
        now = _churn(stl, space.space_id, 14)
        fractions_before = [stl.allocator.free_fraction(c, b)
                            for (c, b) in stl.allocator.planes]
        result = stl.gc.collect_background(now, budget_seconds=1.0)
        fractions_after = [stl.allocator.free_fraction(c, b)
                           for (c, b) in stl.allocator.planes]
        assert result.ran
        assert min(fractions_after) >= min(fractions_before)
        # data survives background collection
        read = stl.read(space.space_id, (0, 0), (8, 8))
        assert bytes_to_array(read.data, np.int16)[0, 0] == 13

    def test_budget_bounds_the_work(self):
        stl = _make_stl()
        space = stl.create_space((8, 8), 2)
        now = _churn(stl, space.space_id, 14)
        tight = stl.gc.collect_background(now, budget_seconds=1e-9)
        assert tight.end_time <= now + 1e-9 or tight.blocks_erased <= 1

    def test_clean_device_is_a_noop(self):
        stl = _make_stl()
        stl.create_space((8, 8), 2)
        result = stl.gc.collect_background(0.0, budget_seconds=1.0)
        assert not result.ran
        assert result.blocks_erased == 0

    def test_background_gc_reduces_foreground_stalls(self):
        """The §6.1 rationale: cleaning during idle time removes inline
        GC from the write path."""
        def foreground_gc_time(background: bool) -> float:
            stl = _make_stl()
            space = stl.create_space((8, 8), 2)
            now = _churn(stl, space.space_id, 12)
            if background:
                now = max(now, stl.gc.collect_background(
                    now, budget_seconds=10.0).end_time)
            data = np.zeros((8, 8), dtype=np.int16)
            total_gc = 0.0
            for round_id in range(6):
                result = stl.write(space.space_id, (0, 0), (8, 8),
                                   data=array_to_bytes(data),
                                   start_time=now + round_id)
                total_gc += sum(block.gc_time for block in result.blocks)
            return total_gc

        assert foreground_gc_time(True) <= foreground_gc_time(False)


def _reference_collect_background(gc, now, budget_seconds, watermark=None):
    """``collect_background`` before its integer early exit: always sort
    the planes by float free fraction and skip those at the watermark."""
    if watermark is None:
        watermark = min(0.9, 2.0 * gc.threshold)
    deadline = now + budget_seconds
    total = NdsGcResult(ran=False, end_time=now)
    planes = sorted(gc.allocator.planes,
                    key=lambda key: gc.allocator.free_fraction(*key))
    for channel, bank in planes:
        if total.end_time >= deadline:
            break
        if gc.allocator.free_fraction(channel, bank) >= watermark:
            continue
        part = gc.collect(channel, bank, total.end_time,
                          target_fraction=watermark, max_victims=1)
        total.units_relocated += part.units_relocated
        total.blocks_erased += part.blocks_erased
        total.end_time = max(total.end_time, part.end_time)
        total.ran = total.ran or part.ran
    total.stats.count("nds_gc_units_relocated", total.units_relocated)
    total.stats.count("nds_gc_blocks_erased", total.blocks_erased)
    return total


def _churned_pool(reference: bool):
    """Overwrite a dataset on a 2-device TINY_TEST pool until the pool's
    GC coordinator has background collections to run; every
    ``collect_background`` result is recorded."""
    system = SoftwareNdsSystem(TINY_TEST, devices=2)
    results = []
    for handle in system.cluster.pool.devices:
        gc = handle.system.stl.gc

        def recording(now, budget_seconds, watermark=None, gc=gc,
                      method=gc.collect_background):
            if reference:
                result = _reference_collect_background(
                    gc, now, budget_seconds, watermark)
            else:
                result = method(now, budget_seconds, watermark)
            results.append((result.ran, result.end_time.hex(),
                            result.units_relocated, result.blocks_erased,
                            dict(result.stats.counters)))
            return result

        gc.collect_background = recording
    system.ingest("m", (64, 64), 4)
    now = 0.0
    ends = []
    for step in range(60):
        now = system.write_tile("m", ((step * 16) % 64, 0), (16, 64),
                                start_time=now).end_time
        ends.append(now.hex())
    planes = []
    for handle in system.cluster.pool.devices:
        stl = handle.system.stl
        for key, plane in sorted(stl.allocator.planes.items()):
            planes.append((key, plane.free_page_count(), plane.active_block,
                           list(plane.free_blocks),
                           {block: asdict(state)
                            for block, state in plane.blocks.items()}))
        planes.append((stl.gc.total_relocated, stl.gc.total_erased,
                       sorted(stl.gc.reverse.items())))
    return results, ends, planes


def test_churned_pool_matches_the_sorted_reference():
    """The integer early exit returns exactly the sorted path's empty
    result, and where a plane is below the watermark the sorted path
    still runs: results, op end times and plane state all match."""
    got = _churned_pool(reference=False)
    want = _churned_pool(reference=True)
    results = got[0]
    assert any(ran for ran, *_ in results)
    assert any(not ran for ran, *_ in results)
    assert got == want
