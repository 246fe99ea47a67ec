"""Per-page address records stay out of CPython's cyclic collector.

The simulator keeps one address per stored page: the FTL map, every
building block's page list and the NDS GC reverse table. CPython stops
tracking an exact tuple whose items are all untracked, but never a
tuple subclass, so a ``NamedTuple`` (or any class instance) per page
puts every stored page on every full collection's walk. These tests
ingest, overwrite and garbage-collect on all four systems and then
check that every stored address is an untracked plain tuple, equal to
its named form, and that an ingest adds far fewer tracked objects than
it stores pages.

NDS systems run with 128x128 building blocks (64 pages each). TINY_TEST's
Eq. 2 block is 4 pages, and a building block carries about ten tracked
bookkeeping objects (its entry, page list, usage dicts, placement
grid), so with the default block the per-block objects alone outnumber
the pages and the bound below could not tell them from per-page records.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core.btree import ReverseEntry
from repro.nvm import PhysicalPageAddress
from repro.nvm.profiles import TINY_TEST
from repro.systems import (BaselineSystem, HardwareNdsSystem, OracleSystem,
                           SoftwareNdsSystem)

SYSTEMS = (BaselineSystem, SoftwareNdsSystem, HardwareNdsSystem,
           OracleSystem)
NDS_SYSTEMS = (SoftwareNdsSystem, HardwareNdsSystem)

#: 64 KiB of uint8 — 256 pages, half of TINY_TEST
DIMS = (256, 256)
NDS_BLOCK = (128, 128)


def _collect():
    # a tuple holding a tuple (a reverse entry's block coordinate) is
    # untracked only once its item is, and one pass may reach the outer
    # tuple first: the second pass settles it
    gc.collect()
    gc.collect()


def _tracked_by_type():
    return Counter(type(obj) for obj in gc.get_objects())


def _system(cls):
    if cls in NDS_SYSTEMS:
        return cls(TINY_TEST, store_data=False, bb_override=NDS_BLOCK)
    return cls(TINY_TEST, store_data=False)


def _churn(system):
    """Overwrites past the free space, so both GC layers relocate."""
    for _ in range(6):
        system.write_tile("a", (0, 0), DIMS)
        if not isinstance(system, OracleSystem):
            # the oracle only stores tiles of its ingested shape
            system.write_tile("a", (64, 64), (64, 128))


def _stored_addresses(system):
    """(page addresses, other addresses, reverse-table records) the
    system holds: FTL map values, or building-block pages plus each
    block's ``last_alloc`` and the NDS reverse table."""
    if isinstance(system, NDS_SYSTEMS):
        stl = system.stl
        pages, others = [], []
        for index in stl.indexes.values():
            for entry in index.iter_entries():
                pages.extend(p for p in entry.pages if p is not None)
                if entry.last_alloc is not None:
                    others.append(entry.last_alloc)
        return pages, others, list(stl.gc.reverse.values())
    return list(system.ssd.ftl.map.values()), [], []


def _gc_erased(system) -> int:
    if isinstance(system, NDS_SYSTEMS):
        return system.stl.gc.total_erased
    return system.ssd.gc.total_erased


@pytest.mark.parametrize("cls", SYSTEMS, ids=[c.name for c in SYSTEMS])
def test_stored_addresses_are_untracked_plain_tuples(cls):
    system = _system(cls)
    system.ingest("a", DIMS, 1)
    _churn(system)
    assert _gc_erased(system) > 0, "churn never triggered GC"
    _collect()
    pages, others, records = _stored_addresses(system)
    assert len(pages) == DIMS[0] * DIMS[1] // TINY_TEST.geometry.page_size
    for ppa in pages + others:
        assert type(ppa) is tuple, type(ppa)
        assert not gc.is_tracked(ppa), ppa
        named = PhysicalPageAddress(*ppa)
        assert ppa == named and hash(ppa) == hash(named)
    if isinstance(system, NDS_SYSTEMS):
        # one back-reference per live unit
        assert len(records) == len(pages)
    for back_ref in records:
        assert type(back_ref) is tuple, type(back_ref)
        assert not gc.is_tracked(back_ref), back_ref
        named = ReverseEntry(*back_ref)
        assert back_ref == named and hash(back_ref) == hash(named)


@pytest.mark.parametrize("cls", SYSTEMS, ids=[c.name for c in SYSTEMS])
def test_ingest_adds_no_tracked_object_per_page(cls):
    system = _system(cls)
    _collect()
    before = _tracked_by_type()
    system.ingest("a", DIMS, 1)
    _collect()
    growth = _tracked_by_type()
    growth.subtract(before)
    pages = len(_stored_addresses(system)[0])
    assert pages == DIMS[0] * DIMS[1] // TINY_TEST.geometry.page_size
    # any per-page tracked record alone would reach this bound
    added = sum(count for count in growth.values() if count > 0)
    assert added < pages, growth.most_common(5)
    # and no single type grows with the page count (per-block
    # bookkeeping: one erase-block state per 8 pages, a few lists and
    # dicts per building block)
    kind, count = growth.most_common(1)[0]
    assert count < pages // 4, (kind, count)
