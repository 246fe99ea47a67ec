"""Tests for physical page addressing."""

import pytest

from repro.core.gc import ReverseEntry
from repro.nvm import Geometry, PhysicalPageAddress, index_to_ppa, ppa_to_index


@pytest.fixture
def geometry():
    return Geometry(channels=4, banks_per_channel=2, blocks_per_bank=8,
                    pages_per_block=8, page_size=256)


def test_roundtrip_all_pages(geometry):
    for index in range(geometry.total_pages):
        ppa = index_to_ppa(index, geometry)
        assert ppa_to_index(ppa, geometry) == index


def test_index_zero_is_origin(geometry):
    assert index_to_ppa(0, geometry) == PhysicalPageAddress(0, 0, 0, 0)


def test_linearization_is_channel_major(geometry):
    last_of_channel0 = PhysicalPageAddress(0, 1, 7, 7)
    first_of_channel1 = PhysicalPageAddress(1, 0, 0, 0)
    assert (ppa_to_index(first_of_channel1, geometry)
            == ppa_to_index(last_of_channel0, geometry) + 1)


def test_out_of_range_index(geometry):
    with pytest.raises(ValueError):
        index_to_ppa(geometry.total_pages, geometry)
    with pytest.raises(ValueError):
        index_to_ppa(-1, geometry)


def test_validate(geometry):
    PhysicalPageAddress(3, 1, 7, 7).validate(geometry)
    with pytest.raises(ValueError):
        PhysicalPageAddress(4, 0, 0, 0).validate(geometry)
    with pytest.raises(ValueError):
        PhysicalPageAddress(0, 2, 0, 0).validate(geometry)
    with pytest.raises(ValueError):
        PhysicalPageAddress(0, 0, 8, 0).validate(geometry)
    with pytest.raises(ValueError):
        PhysicalPageAddress(0, 0, 0, 8).validate(geometry)


def test_ordering_is_lexicographic():
    a = PhysicalPageAddress(0, 0, 0, 1)
    b = PhysicalPageAddress(0, 0, 1, 0)
    c = PhysicalPageAddress(1, 0, 0, 0)
    assert a < b < c


# ----------------------------------------------------------------------
# value semantics of the per-page records
# ----------------------------------------------------------------------
class TestPhysicalPageAddressValue:
    def test_hash_is_the_field_tuple_hash(self):
        ppa = PhysicalPageAddress(3, 1, 6, 2)
        assert hash(ppa) == hash((3, 1, 6, 2))
        assert len({ppa, PhysicalPageAddress(3, 1, 6, 2)}) == 1

    def test_ordering_is_lexicographic(self):
        fields = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 5), (0, 0, 1, 2),
                  (0, 0, 0, 7), (1, 0, 0, 0)]
        ppas = [PhysicalPageAddress(*f) for f in fields]
        assert [tuple(p) for p in sorted(ppas)] == sorted(fields)
        assert PhysicalPageAddress(0, 1, 0, 0) < PhysicalPageAddress(1, 0, 0, 0)
        assert PhysicalPageAddress(0, 0, 2, 0) > PhysicalPageAddress(0, 0, 1, 7)

    def test_keyword_construction_and_fields(self):
        ppa = PhysicalPageAddress(channel=2, bank=1, block=5, page=3)
        assert ppa == PhysicalPageAddress(2, 1, 5, 3)
        assert (ppa.channel, ppa.bank, ppa.block, ppa.page) == (2, 1, 5, 3)
        assert repr(ppa) == \
            "PhysicalPageAddress(channel=2, bank=1, block=5, page=3)"

    def test_fields_are_immutable(self):
        ppa = PhysicalPageAddress(0, 0, 0, 0)
        with pytest.raises(AttributeError):
            ppa.page = 1
        with pytest.raises(AttributeError):
            ppa.channel = 1

    def test_index_method_matches_linearization(self, geometry):
        for index in range(0, geometry.total_pages, 7):
            ppa = index_to_ppa(index, geometry)
            assert ppa.index(geometry) == ppa_to_index(ppa, geometry) == index


class TestReverseEntryValue:
    def test_hash_is_the_field_tuple_hash(self):
        entry = ReverseEntry(2, (1, 3), 5)
        assert hash(entry) == hash((2, (1, 3), 5))
        assert entry == ReverseEntry(2, (1, 3), 5)

    def test_ordering_is_lexicographic(self):
        entries = [ReverseEntry(1, (0,), 0), ReverseEntry(0, (2,), 1),
                   ReverseEntry(0, (2,), 0), ReverseEntry(0, (1, 9), 4)]
        assert [tuple(e) for e in sorted(entries)] == \
            sorted(tuple(e) for e in entries)

    def test_keyword_construction_and_fields(self):
        entry = ReverseEntry(space_id=4, block_coord=(0, 2), position=7)
        assert entry == ReverseEntry(4, (0, 2), 7)
        assert (entry.space_id, entry.block_coord, entry.position) == \
            (4, (0, 2), 7)

    def test_fields_are_immutable(self):
        entry = ReverseEntry(1, (0,), 0)
        with pytest.raises(AttributeError):
            entry.position = 1
