"""Physical page addressing.

A physical page address (PPA) names one basic access unit:
``(channel, bank, block, page)``. A compact integer linearization is
used as dictionary key by the functional page store and by the FTL/STL
mapping tables.

The addresses the simulator issues and stores (allocator results, the
FTL map, building-block page lists) are plain tuples, read by position.
CPython's cyclic collector stops tracking an exact tuple of ints the
first time a collection examines it, but never a tuple subclass, so a
named tuple per page would keep every stored address on every full
collection's walk. :class:`PhysicalPageAddress` is the named form for
construction, validation and readable output; it compares and hashes
equal to the plain tuple with the same fields.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.nvm.geometry import Geometry

__all__ = ["PhysicalPageAddress", "PpaTuple", "ppa_to_index", "index_to_ppa"]

#: the stored form of an address: ``(channel, bank, block, page)``
PpaTuple = Tuple[int, int, int, int]


class PhysicalPageAddress(NamedTuple):
    """One basic access unit in the NVM array.

    A named tuple: immutable, hashed and ordered as the plain tuple
    ``(channel, bank, block, page)``. ``PhysicalPageAddress(*ppa)``
    names the fields of a stored plain-tuple address.
    """

    channel: int
    bank: int
    block: int
    page: int

    def validate(self, geometry: Geometry) -> None:
        if not (0 <= self.channel < geometry.channels):
            raise ValueError(f"channel {self.channel} out of range")
        if not (0 <= self.bank < geometry.banks_per_channel):
            raise ValueError(f"bank {self.bank} out of range")
        if not (0 <= self.block < geometry.blocks_per_bank):
            raise ValueError(f"block {self.block} out of range")
        if not (0 <= self.page < geometry.pages_per_block):
            raise ValueError(f"page {self.page} out of range")

    def index(self, geometry: Geometry) -> int:
        return ppa_to_index(self, geometry)


def ppa_to_index(ppa: PpaTuple, geometry: Geometry) -> int:
    """Linearize a PPA: channel-major, then bank, block, page."""
    return ((ppa[0] * geometry.banks_per_channel + ppa[1])
            * geometry.blocks_per_bank + ppa[2]) \
        * geometry.pages_per_block + ppa[3]


def index_to_ppa(index: int, geometry: Geometry) -> PhysicalPageAddress:
    """Inverse of :func:`ppa_to_index`."""
    if not (0 <= index < geometry.total_pages):
        raise ValueError(f"page index {index} out of range")
    page = index % geometry.pages_per_block
    index //= geometry.pages_per_block
    block = index % geometry.blocks_per_bank
    index //= geometry.blocks_per_bank
    bank = index % geometry.banks_per_channel
    channel = index // geometry.banks_per_channel
    return PhysicalPageAddress(channel=channel, bank=bank, block=block, page=page)
