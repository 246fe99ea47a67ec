"""Integration tests: the DRAM tier wired through all four systems."""

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.nvm import TINY_TEST
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)

ALL_SYSTEMS = (BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem,
               OracleSystem)
IDS = ("baseline", "software", "hardware", "oracle")

DIMS = (64, 64)
TILE = (16, 16)


def make_system(cls, cache, **kwargs):
    system = cls(TINY_TEST, cache=cache, **kwargs)
    tile = {"tile": TILE} if cls is OracleSystem else {}
    system.ingest("m", DIMS, 4, **tile)
    return system


class TestWiring:
    @pytest.mark.parametrize("cls", ALL_SYSTEMS, ids=IDS)
    def test_no_cache_means_no_tier(self, cls):
        system = make_system(cls, cache=None)
        assert system.tier is None
        assert system.cache_report() is None
        assert system.cache_counters() is None
        # the fence is a no-op without a tier
        assert system.flush_cache(1.5) == 1.5

    @pytest.mark.parametrize("cls", ALL_SYSTEMS, ids=IDS)
    def test_repeat_read_hits_and_speeds_up(self, cls):
        system = make_system(cls, cache=CacheConfig(capacity_bytes=1 << 20))
        miss = system.read_tile("m", (0, 0), TILE).end_time
        system.reset_time()  # drain timelines so latencies compare 1:1
        hit = system.read_tile("m", (0, 0), TILE).end_time
        report = system.cache_report()
        assert report["hits"] >= 1
        assert report["misses"] >= 1
        assert hit < miss

    @pytest.mark.parametrize("cls", ALL_SYSTEMS, ids=IDS)
    def test_per_stream_hit_rates(self, cls):
        system = make_system(cls, cache=CacheConfig(capacity_bytes=1 << 20))
        system.read_tile("m", (0, 0), TILE, stream="hot")
        system.read_tile("m", (0, 0), TILE, stream="hot")
        system.read_tile("m", (16, 16), TILE, stream="cold")
        streams = system.scheduler.stream_cache_report()
        assert streams["hot"]["hits"] >= 1
        assert streams["hot"]["hit_rate"] > 0
        assert streams["cold"].get("hits", 0) == 0
        # the per-op report surfaces the same counters
        assert system.scheduler.stream_report()["hot"]["cache"]["hits"] >= 1

    @pytest.mark.parametrize("cls", ALL_SYSTEMS, ids=IDS)
    def test_write_through_keeps_device_path(self, cls):
        system = make_system(cls, cache=CacheConfig(capacity_bytes=1 << 20))
        result = system.write_tile("m", (0, 0), TILE)
        assert result.fetched_bytes > 0
        assert system.cache_report()["writebacks"] == 0

    @pytest.mark.parametrize("cls", ALL_SYSTEMS, ids=IDS)
    def test_write_back_defers_then_fences(self, cls):
        system = make_system(cls, cache=CacheConfig(
            capacity_bytes=1 << 20, write_back=True, dirty_max=64))
        result = system.write_tile("m", (0, 0), TILE)
        assert result.fetched_bytes == 0  # absorbed in DRAM
        assert system.tier.dirty_count >= 1
        fence = system.flush_cache(result.end_time)
        assert fence > result.end_time  # the deferred device write ran
        assert system.tier.dirty_count == 0
        assert system.cache_report()["writebacks"] >= 1

    @pytest.mark.parametrize("cls", ALL_SYSTEMS, ids=IDS)
    def test_read_after_write_back_hits_dram(self, cls):
        system = make_system(cls, cache=CacheConfig(
            capacity_bytes=1 << 20, write_back=True))
        system.write_tile("m", (0, 0), TILE)
        before = system.cache_report()["hits"]
        system.read_tile("m", (0, 0), TILE)
        assert system.cache_report()["hits"] > before


class TestFunctionalCoherence:
    @pytest.mark.parametrize("cls", (SoftwareNdsSystem, HardwareNdsSystem),
                             ids=("software", "hardware"))
    @pytest.mark.parametrize("write_back", (False, True),
                             ids=("write-through", "write-back"))
    def test_cached_reads_return_fresh_bytes(self, cls, write_back, rng):
        system = cls(TINY_TEST, store_data=True, cache=CacheConfig(
            capacity_bytes=1 << 20, write_back=write_back))
        data = rng.integers(0, 2**31, DIMS).astype(np.int32)
        system.ingest("m", DIMS, 4, data=data)
        # populate the tier, then overwrite the cached tile
        system.read_tile("m", (0, 0), TILE, with_data=True, dtype=np.int32)
        patch = rng.integers(0, 2**31, TILE).astype(np.int32)
        system.write_tile("m", (0, 0), TILE, data=patch)
        result = system.read_tile("m", (0, 0), TILE, with_data=True,
                                  dtype=np.int32)
        assert np.array_equal(result.data, patch)
        # unrelated tiles are untouched
        other = system.read_tile("m", (16, 16), TILE, with_data=True,
                                 dtype=np.int32)
        assert np.array_equal(other.data, data[16:32, 16:32])

    @pytest.mark.parametrize("cls", (BaselineSystem, OracleSystem),
                             ids=("baseline", "oracle"))
    def test_linear_systems_refuse_functional_reads_with_tier(self, cls):
        system = cls(TINY_TEST, store_data=True,
                     cache=CacheConfig(capacity_bytes=1 << 20))
        tile = {"tile": TILE} if cls is OracleSystem else {}
        system.ingest("m", DIMS, 4, **tile)
        with pytest.raises(NotImplementedError):
            system.read_tile("m", (0, 0), TILE, with_data=True)


class TestPrefetch:
    @pytest.mark.parametrize("cls", (SoftwareNdsSystem, HardwareNdsSystem),
                             ids=("software", "hardware"))
    def test_sequential_scan_hits_prefetched_regions(self, cls):
        system = cls(TINY_TEST, cache=CacheConfig(capacity_bytes=1 << 20,
                                                  prefetch=2))
        system.ingest("m", DIMS, 4)
        for row in range(0, DIMS[0], TILE[0]):
            system.read_tile("m", (row, 0), TILE)
        report = system.cache_report()
        assert report["prefetch_issued"] > 0
        assert report["prefetch_hits"] > 0
        assert report["prefetch_accuracy"] > 0

    @pytest.mark.parametrize("cls", (BaselineSystem, OracleSystem),
                             ids=("baseline", "oracle"))
    def test_linear_systems_ignore_prefetch(self, cls):
        system = make_system(cls, cache=CacheConfig(
            capacity_bytes=1 << 20, prefetch=2))
        system.read_tile("m", (0, 0), TILE)
        assert system.cache_report()["prefetch_issued"] == 0


class TestDeterminism:
    @staticmethod
    def _trace(cls, cache):
        system = cls(TINY_TEST, cache=cache)
        tile = {"tile": TILE} if cls is OracleSystem else {}
        system.ingest("m", DIMS, 4, **tile)
        ends = []
        for origin in [(0, 0), (16, 0), (0, 0), (16, 16), (0, 0)]:
            ends.append(system.read_tile("m", origin, TILE).end_time.hex())
            ends.append(system.write_tile("m", origin, TILE).end_time.hex())
        fence = system.flush_cache()
        return ends, fence.hex(), system.cache_report()

    @pytest.mark.parametrize("cls", ALL_SYSTEMS, ids=IDS)
    @pytest.mark.parametrize("policy", ("lru", "clock", "admission"))
    def test_two_runs_bit_identical(self, cls, policy):
        cache = CacheConfig(capacity_bytes=32 * 1024, policy=policy,
                            write_back=True, dirty_max=4)
        assert self._trace(cls, cache) == self._trace(cls, cache)


#: end times of every op and the final ``cache_report()`` (floats as
#: ``float.hex()``) for :meth:`TestCachedTimingGoldens._run`, captured
#: before the NDS tier flow moved into ``StorageSystem``: the shared
#: flow must charge each architecture's own cost calls, bit for bit
CACHED_GOLDENS = {
    ('software', 'write-through'): (
        ['0x1.7941255b3dda3p-10',
         '0x1.e55d747b21c15p-10',
         '0x1.029e7935af47ap-9',
         '0x1.056331b7bc09dp-9',
         '0x1.1d5de76f6dfffp-9',
         '0x1.2498e4f36ff88p-9',
         '0x1.289ba8f30ea9bp-9',
         '0x1.289ba8f30ea9bp-9'],
        {'capacity_bytes': 65536,
         'dirty': 0,
         'entries': 26,
         'evictions': 0,
         'hit_rate': '0x1.0000000000000p-2',
         'hits': 2,
         'insertions': 29,
         'invalidations': 3,
         'misses': 6,
         'policy': 'lru',
         'prefetch_accuracy': '0x1.642d05f288484p-4',
         'prefetch_hits': 2,
         'prefetch_issued': 23,
         'rejected': 0,
         'resident_bytes': 11264,
         'write_back': False,
         'writebacks': 0}),
    ('software', 'write-back'): (
        ['0x1.7941255b3dda3p-10',
         '0x1.95d331aaabb0ep-10',
         '0x1.ccfd4041aa663p-10',
         '0x1.3f1bed4b52877p-9',
         '0x1.5716a303047d9p-9',
         '0x1.5e51a08706762p-9',
         '0x1.62546486a5275p-9',
         '0x1.62546486a5275p-9'],
        {'capacity_bytes': 65536,
         'dirty': 0,
         'entries': 30,
         'evictions': 0,
         'hit_rate': '0x1.0000000000000p-2',
         'hits': 2,
         'insertions': 35,
         'invalidations': 5,
         'misses': 6,
         'policy': 'lru',
         'prefetch_accuracy': '0x1.642d05f288484p-4',
         'prefetch_hits': 2,
         'prefetch_issued': 23,
         'rejected': 0,
         'resident_bytes': 12544,
         'write_back': True,
         'writebacks': 6}),
    ('hardware', 'write-through'): (
        ['0x1.1dcffd367fa18p-10',
         '0x1.8f62d65b634a5p-10',
         '0x1.ad9dd4df0c61bp-10',
         '0x1.b459b50e5060dp-10',
         '0x1.dcbb6cd3120b5p-10',
         '0x1.1b4368e4805e4p-22',
         '0x1.1b4368e4805e4p-21',
         '0x1.1b4368e4805e4p-21'],
        {'capacity_bytes': 65536,
         'dirty': 0,
         'entries': 26,
         'evictions': 0,
         'hit_rate': '0x1.0000000000000p-2',
         'hits': 2,
         'insertions': 29,
         'invalidations': 3,
         'misses': 6,
         'policy': 'lru',
         'prefetch_accuracy': '0x1.642d05f288484p-4',
         'prefetch_hits': 2,
         'prefetch_issued': 23,
         'rejected': 0,
         'resident_bytes': 11264,
         'write_back': False,
         'writebacks': 0}),
    ('hardware', 'write-back'): (
        ['0x1.1dcffd367fa18p-10',
         '0x1.5bb0158b1202ep-22',
         '0x1.73ac38f253b3cp-10',
         '0x1.0b913cc297d97p-9',
         '0x1.1fc218a4f8aecp-9',
         '0x1.d3d83b1b21a5dp-21',
         '0x1.30bcf7c6b0ea8p-20',
         '0x1.30bcf7c6b0ea8p-20'],
        {'capacity_bytes': 65536,
         'dirty': 0,
         'entries': 30,
         'evictions': 0,
         'hit_rate': '0x1.0000000000000p-2',
         'hits': 2,
         'insertions': 35,
         'invalidations': 5,
         'misses': 6,
         'policy': 'lru',
         'prefetch_accuracy': '0x1.642d05f288484p-4',
         'prefetch_hits': 2,
         'prefetch_issued': 23,
         'rejected': 0,
         'resident_bytes': 12544,
         'write_back': True,
         'writebacks': 6}),
}


class TestCachedTimingGoldens:
    @staticmethod
    def _run(cls, write_back):
        system = cls(TINY_TEST, cache=CacheConfig(
            capacity_bytes=64 * 1024, write_back=write_back, dirty_max=4,
            prefetch=2))
        system.ingest("m", DIMS, 4)
        # populate, overwrite overlapping regions, read across the
        # overlap, then a forward scan that prefetches
        ends = [system.read_tile("m", (0, 0), TILE).end_time]
        for origin in ((4, 4), (8, 0)):
            ends.append(system.write_tile("m", origin, TILE).end_time)
        ends.append(system.read_tile("m", (2, 6), TILE).end_time)
        for row in range(16, DIMS[0], TILE[0]):
            ends.append(system.read_tile("m", (row, 0), TILE).end_time)
        ends.append(system.flush_cache(ends[-1]))
        report = {key: value.hex() if isinstance(value, float) else value
                  for key, value in system.cache_report().items()}
        return [end.hex() for end in ends], report

    @pytest.mark.parametrize("cls", (SoftwareNdsSystem, HardwareNdsSystem),
                             ids=("software", "hardware"))
    @pytest.mark.parametrize("write_back", (False, True),
                             ids=("write-through", "write-back"))
    def test_end_times_and_report_match_goldens(self, cls, write_back):
        name = "software" if cls is SoftwareNdsSystem else "hardware"
        mode = "write-back" if write_back else "write-through"
        assert self._run(cls, write_back) == CACHED_GOLDENS[(name, mode)]


class TestPooledAggregation:
    def test_cache_report_merges_pool_members(self):
        system = SoftwareNdsSystem(TINY_TEST, devices=2,
                                   cache=CacheConfig(capacity_bytes=1 << 20))
        system.ingest("m", DIMS, 4)
        system.read_tile("m", (0, 0), TILE)
        system.read_tile("m", (0, 0), TILE)
        report = system.cache_report()
        assert report is not None
        assert report["hits"] >= 1
        assert 0.0 < report["hit_rate"] <= 1.0
