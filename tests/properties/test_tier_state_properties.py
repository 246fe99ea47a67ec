"""Property-based tests: the DRAM tier's running state equals a recount.

``HostTierCache`` keeps its dirty-set size as a running byte count and
adds every counter bump to a pool-wide dict, so the per-op observation
probes cost O(1). Whatever sequence of inserts (clean, dirty, in-place
refreshes with a new size), lookups, invalidations, flushes and
budget/``dirty_max`` evictions runs, both must equal the sums they
replace: the dirty entries' ``nbytes`` and the member tiers' counters,
key order included.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache import CACHE_POLICIES, CacheConfig, HostTierCache
from repro.cache.tier import COUNTER_KEYS
from repro.nvm import TINY_TEST
from repro.systems import BaselineSystem, HardwareNdsSystem, SoftwareNdsSystem

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: string-bearing keys, as the systems use, over two groups and none;
#: few keys so refreshes of resident (dirty) entries are common
KEYS = [("m", index) for index in range(5)]

TIER_OPS = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(KEYS),
              st.integers(1, 400), st.booleans(), st.booleans()),
    st.tuples(st.just("lookup"), st.sampled_from(KEYS)),
    st.tuples(st.just("invalidate"), st.sampled_from(KEYS)),
    st.tuples(st.just("flush_entry"), st.sampled_from(KEYS)),
    st.tuples(st.just("flush_all")),
)


def _group(key):
    return None if key[1] == 4 else key[1] % 2


def _assert_tier_state(tier: HostTierCache) -> None:
    entries = tier.entries
    assert tier.dirty_bytes == sum(entries[key].nbytes
                                   for key in tier._dirty)
    assert set(tier._dirty) == {key for key, entry in entries.items()
                                if entry.dirty}
    assert tier.total_bytes == sum(e.nbytes for e in entries.values())
    # each group lists its resident keys in insertion order
    groups = {}
    for key, entry in entries.items():
        if entry.group is not None:
            groups.setdefault(entry.group, []).append(key)
    assert {group: list(keys) for group, keys in tier._groups.items()} \
        == groups


@SETTINGS
@given(policy=st.sampled_from(CACHE_POLICIES),
       capacity=st.sampled_from([256, 1024, 4096]),
       dirty_max=st.integers(1, 4),
       ops=st.lists(TIER_OPS, min_size=1, max_size=40))
@example(policy="lru", capacity=4096, dirty_max=4,
         ops=[("insert", KEYS[0], 100, False, True),
              ("insert", KEYS[0], 200, True, False),    # clean -> dirty
              ("insert", KEYS[0], 300, False, False),   # dirty, resized
              ("insert", KEYS[0], 50, True, False)])    # dirty, resized
@example(policy="clock", capacity=4096, dirty_max=4,
         ops=[("insert", KEYS[1], 100, True, False),
              ("invalidate", KEYS[1])])                 # dirty dropped
def test_running_dirty_bytes_and_counters_equal_a_recount(
        policy, capacity, dirty_max, ops):
    tier = HostTierCache(CacheConfig(capacity_bytes=capacity, policy=policy,
                                     write_back=True, dirty_max=dirty_max))
    tier.flush_fn = lambda entry, now: now + 1e-6
    tier.pool_counters = dict.fromkeys(COUNTER_KEYS, 0)
    now = 0.0
    for op in ops:
        kind, args = op[0], op[1:]
        if kind == "insert":
            key, nbytes, dirty, prefetched = args
            now = tier.insert(key, nbytes, now, dirty=dirty,
                              prefetched=prefetched, group=_group(key))
        elif kind == "lookup":
            tier.lookup(args[0])
        elif kind == "invalidate":
            tier.invalidate(args[0])
        elif kind == "flush_entry":
            now = tier.flush_entry(args[0], now)
        else:
            now = tier.flush_all(now)
        _assert_tier_state(tier)
        assert tier.pool_counters == tier.counters
    tier.flush_all(now)
    assert tier.dirty_bytes == 0


def _member_sum(system):
    """The member-tier recount ``cache_counters`` replaced."""
    totals = None
    for member in system._member_systems():
        if member.tier is None:
            continue
        if totals is None:
            totals = {}
        for key, value in member.tier.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


DIMS = (64, 64)
TILE = (16, 16)
ORIGINS = [(r, c) for r in range(0, DIMS[0], TILE[0])
           for c in range(0, DIMS[1], TILE[1])]
FACTORIES = {"software-nds": SoftwareNdsSystem,
             "hardware-nds": HardwareNdsSystem,
             "baseline": BaselineSystem}


@SETTINGS
@given(name=st.sampled_from(sorted(FACTORIES)),
       capacity=st.sampled_from([1024, 2048, 8192]),
       dirty_max=st.integers(1, 6),
       ops=st.lists(st.tuples(st.booleans(),
                              st.sampled_from(range(len(ORIGINS)))),
                    min_size=1, max_size=20))
def test_pool_counters_equal_the_member_sum(name, capacity, dirty_max, ops):
    """A 3-device write-back pool: after every op ``cache_counters()``
    is the member sum dict, values and key order, and the dirty-byte
    probe is the members' recount."""
    system = FACTORIES[name](
        TINY_TEST, devices=3,
        cache=CacheConfig(capacity_bytes=capacity, write_back=True,
                          dirty_max=dirty_max))
    system.ingest("m", DIMS, 4)
    assert list(system.cache_counters().items()) \
        == list(_member_sum(system).items())
    now = 0.0
    for is_write, index in ops:
        if is_write:
            result = system.write_tile("m", ORIGINS[index], TILE,
                                       start_time=now)
        else:
            result = system.read_tile("m", ORIGINS[index], TILE,
                                      start_time=now)
        now = result.end_time
        assert list(system.cache_counters().items()) \
            == list(_member_sum(system).items())
        assert system.cache_dirty_bytes() == sum(
            member.tier.entries[key].nbytes
            for member in system._member_systems()
            for key in member.tier._dirty)
    system.flush_cache(now)
    assert system.cache_counters() == _member_sum(system)
    assert system.cache_dirty_bytes() == 0
