"""O(1) free-space accounting and the integer GC floor.

``_FreeBlockPool`` keeps its size as a running count, and both garbage
collectors compare a plane's free pages against an integer ``floor``
derived once from the float ``threshold``. These tests pin both to the
definitions they replace: a full recount of the pool, and the float
predicate ``free / pages_per_bank < threshold``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import NdsAllocator
from repro.core.gc import NdsGarbageCollector
from repro.ftl import PageMapFTL
from repro.ftl.gc import GarbageCollector
from repro.ftl.mapping import _FreeBlockPool, free_page_floor
from repro.nvm.flash import FlashArray
from repro.nvm.profiles import CONSUMER_SSD, PAPER_PROTOTYPE, TINY_TEST

THRESHOLDS = (0.05, 0.07, 0.10, 1 / 3, 0.9)
PROFILES = (TINY_TEST, CONSUMER_SSD, PAPER_PROTOTYPE)


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_floor_matches_float_predicate_at_the_boundary(threshold, profile):
    pages_per_bank = profile.geometry.pages_per_bank
    floor = free_page_floor(threshold, pages_per_bank)
    assert 0 < floor <= pages_per_bank
    for n in range(max(0, floor - 3), floor + 4):
        assert (n < floor) == (n / pages_per_bank < threshold), (n, floor)


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_background_watermark_floor_matches_float_predicate(threshold,
                                                            profile):
    """``collect_background``'s early exit: every plane at or above the
    integer floor of the default watermark is exactly every plane with
    ``free / pages_per_bank >= watermark``."""
    pages_per_bank = profile.geometry.pages_per_bank
    watermark = min(0.9, 2.0 * threshold)
    floor = free_page_floor(watermark, pages_per_bank)
    for n in range(max(0, floor - 3), floor + 4):
        assert (n >= floor) == (n / pages_per_bank >= watermark), (n, floor)


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_collectors_carry_the_floor(threshold):
    geometry = TINY_TEST.geometry
    floor = free_page_floor(threshold, geometry.pages_per_bank)
    flash = FlashArray(geometry, TINY_TEST.timing, store_data=False)
    ftl_gc = GarbageCollector(PageMapFTL(geometry), flash,
                              threshold=threshold)
    nds_gc = NdsGarbageCollector(NdsAllocator(geometry), flash,
                                 lambda space_id, coord: None,
                                 threshold=threshold)
    assert ftl_gc.floor == nds_gc.floor == floor


def test_needs_collection_tracks_the_float_predicate():
    """Fill one plane page by page: the integer trigger flips exactly
    where the float free fraction crosses the threshold."""
    geometry = TINY_TEST.geometry
    ftl = PageMapFTL(geometry)
    flash = FlashArray(geometry, TINY_TEST.timing, store_data=False)
    gc = GarbageCollector(ftl, flash, threshold=0.3)
    plane = ftl.planes[(0, 0)]
    for _ in range(geometry.pages_per_bank):
        assert gc.needs_collection(0, 0) == \
            (ftl.free_fraction(0, 0) < gc.threshold)
        plane.allocate_page()
    assert gc.needs_collection(0, 0)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(0, 12), data=st.data())
def test_pool_length_equals_a_full_recount(count, data):
    """Random pop/append/remove sequences (including removing a virgin
    id, the retire path): the running count, iteration and membership
    agree with a plain-list model of the free list."""
    pool = _FreeBlockPool(count)
    model = list(range(count))
    for _ in range(data.draw(st.integers(0, 40))):
        op = data.draw(st.sampled_from(("pop", "append", "remove")))
        if op == "pop":
            if model:
                assert pool.pop(0) == model.pop(0)
            else:
                with pytest.raises(IndexError):
                    pool.pop(0)
                continue
        elif op == "append":
            taken = [b for b in range(count) if b not in model]
            if not taken:
                continue
            block = data.draw(st.sampled_from(taken))
            pool.append(block)
            model.append(block)
        else:
            if not model:
                with pytest.raises(ValueError):
                    pool.remove(0)
                continue
            block = data.draw(st.sampled_from(model))
            pool.remove(block)
            model.remove(block)
            with pytest.raises(ValueError):
                pool.remove(block)
        recount = list(pool)
        assert len(pool) == len(recount) == len(model)
        assert recount == model
        assert bool(pool) == bool(model)
        for block in range(count):
            assert (block in pool) == (block in model)
