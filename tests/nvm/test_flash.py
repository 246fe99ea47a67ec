"""Tests for the flash array: timing schedules, NAND semantics, data."""

import re

import numpy as np
import pytest

from repro.nvm import (FlashArray, FlashStateError, Geometry, NvmTiming,
                       PhysicalPageAddress)


@pytest.fixture
def timing():
    return NvmTiming(t_read=10e-6, t_program=100e-6, t_erase=500e-6,
                     channel_bandwidth=100e6, t_cmd=0.0)


@pytest.fixture
def geometry():
    return Geometry(channels=4, banks_per_channel=2, blocks_per_bank=4,
                    pages_per_block=8, page_size=1000)


@pytest.fixture
def flash(geometry, timing):
    return FlashArray(geometry, timing, store_data=True)


XFER = 1000 / 100e6  # 10 us page transfer


class TestReadScheduling:
    def test_single_read_latency(self, flash):
        result = flash.read_pages([PhysicalPageAddress(0, 0, 0, 0)], 0.0)
        assert result.end_time == pytest.approx(10e-6 + XFER)

    def test_reads_on_different_channels_are_parallel(self, flash):
        ppas = [PhysicalPageAddress(c, 0, 0, 0) for c in range(4)]
        result = flash.read_pages(ppas, 0.0)
        assert result.end_time == pytest.approx(10e-6 + XFER)

    def test_reads_on_same_bank_serialize_sensing(self, flash):
        ppas = [PhysicalPageAddress(0, 0, 0, p) for p in range(2)]
        result = flash.read_pages(ppas, 0.0)
        # page 0: sense 10 + xfer 10 = 20; bank held during transfer, so
        # page 1 senses [20, 30], transfers [30, 40]
        assert result.end_time == pytest.approx(40e-6)

    def test_reads_on_same_channel_different_banks_pipeline(self, flash):
        ppas = [PhysicalPageAddress(0, b, 0, 0) for b in range(2)]
        result = flash.read_pages(ppas, 0.0)
        # both sense in parallel [0,10]; transfers serialize on the channel
        assert result.end_time == pytest.approx(10e-6 + 2 * XFER)

    def test_issue_time_offsets_schedule(self, flash):
        result = flash.read_pages([PhysicalPageAddress(0, 0, 0, 0)], 5e-6)
        assert result.start_time == 5e-6
        assert result.end_time == pytest.approx(5e-6 + 20e-6)


class TestProgramSemantics:
    def test_program_then_read_roundtrip(self, flash):
        ppa = PhysicalPageAddress(1, 0, 0, 0)
        payload = np.arange(1000, dtype=np.uint8) % 251
        flash.program_pages([ppa], 0.0, data=[payload])
        assert flash.is_programmed(ppa)
        assert np.array_equal(flash.page_data(ppa), payload)

    def test_short_payload_zero_padded(self, flash):
        ppa = PhysicalPageAddress(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0, data=[np.ones(10, dtype=np.uint8)])
        page = flash.page_data(ppa)
        assert page[:10].sum() == 10
        assert page[10:].sum() == 0

    def test_oversize_payload_rejected(self, flash):
        ppa = PhysicalPageAddress(0, 0, 0, 0)
        with pytest.raises(ValueError):
            flash.program_pages([ppa], 0.0,
                                data=[np.zeros(1001, dtype=np.uint8)])

    def test_program_twice_without_erase_raises(self, flash):
        ppa = PhysicalPageAddress(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0)
        with pytest.raises(FlashStateError):
            flash.program_pages([ppa], 0.0)

    def test_plain_tuple_address_errors_name_the_fields(self, flash):
        """The simulator stores plain-tuple addresses; its NAND errors
        still print them with field names, on both program paths."""
        ppa = (0, 1, 2, 3)
        named = "PhysicalPageAddress(channel=0, bank=1, block=2, page=3)"
        twice = re.escape(f"already-programmed page {named} (erase first)")
        flash.program_pages([ppa], 0.0)
        with pytest.raises(FlashStateError, match=twice):
            flash.program_pages([ppa], 0.0)
        flash.fast_path = False
        with pytest.raises(FlashStateError, match=twice):
            flash.program_pages([ppa], 0.0)
        with pytest.raises(FlashStateError,
                           match=re.escape(f"page {named} holds no data")):
            flash.corrupt_page(ppa)

    def test_erase_allows_reprogram(self, flash):
        ppa = PhysicalPageAddress(0, 0, 2, 3)
        flash.program_pages([ppa], 0.0, data=[np.full(5, 9, np.uint8)])
        flash.erase_block(0, 0, 2, 0.0)
        assert not flash.is_programmed(ppa)
        assert flash.page_data(ppa).sum() == 0
        flash.program_pages([ppa], 0.0)  # must not raise

    def test_program_timing_transfer_then_bank(self, flash):
        result = flash.program_pages([PhysicalPageAddress(0, 0, 0, 0)], 0.0)
        assert result.end_time == pytest.approx(XFER + 100e-6)

    def test_unwritten_page_reads_zero(self, flash):
        assert flash.page_data(PhysicalPageAddress(3, 1, 3, 7)).sum() == 0


class TestErase:
    def test_erase_occupies_bank(self, flash):
        result = flash.erase_block(0, 0, 0, 0.0)
        assert result.end_time == pytest.approx(500e-6)
        read = flash.read_pages([PhysicalPageAddress(0, 0, 1, 0)], 0.0)
        # the bank is busy until the erase finishes
        assert read.end_time == pytest.approx(500e-6 + 20e-6)


class TestTimingOnlyMode:
    def test_no_nand_enforcement(self, geometry, timing):
        flash = FlashArray(geometry, timing, store_data=False)
        ppa = PhysicalPageAddress(0, 0, 0, 0)
        flash.program_pages([ppa], 0.0)
        flash.program_pages([ppa], 0.0)  # allowed in timing-only mode

    def test_stats_counting(self, flash):
        flash.read_pages([PhysicalPageAddress(0, 0, 0, 0)] , 0.0)
        flash.program_pages([PhysicalPageAddress(0, 0, 0, 1)], 0.0)
        assert flash.stats.get_count("pages_read") == 1
        assert flash.stats.get_count("pages_programmed") == 1


def test_reset_time_preserves_content(flash):
    ppa = PhysicalPageAddress(2, 1, 0, 0)
    flash.program_pages([ppa], 0.0, data=[np.full(4, 7, np.uint8)])
    flash.reset_time()
    assert flash.channel_lines[2].free_at == 0.0
    assert flash.page_data(ppa)[0] == 7
