"""Page-mapped flash translation layer with channel-striped allocation.

This is the *conventional* SSD management layer the paper's baseline
uses (§2.1): logically consecutive pages are striped across channels so
that **sequential** LBA accesses enjoy full channel parallelism — which
is precisely why *non*-sequential, dimension-crossing accesses
underutilize the device ([P3]).

Allocation is log-structured per (channel, bank): each (channel, bank)
pair keeps an active block that fills page by page; overwrites
invalidate the old physical page and go to a fresh one in the same
(channel, bank) so the striping invariant survives updates.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.nvm.address import PpaTuple
from repro.nvm.geometry import Geometry

__all__ = ["BlockState", "PlaneAllocator", "PageMapFTL", "OutOfSpaceError",
           "free_page_floor"]


def free_page_floor(threshold: float, pages_per_bank: int) -> int:
    """The smallest free-page count ``n`` for which
    ``n / pages_per_bank < threshold`` is false.

    ``free < floor`` then holds exactly when the float predicate does,
    so GC triggers compare integers per page instead of dividing.
    """
    n = math.ceil(threshold * pages_per_bank)
    while n > 0 and not ((n - 1) / pages_per_bank < threshold):
        n -= 1
    while n / pages_per_bank < threshold:
        n += 1
    return n


class OutOfSpaceError(RuntimeError):
    """No free page satisfies the allocation request (GC must run)."""


@dataclass
class BlockState:
    """Book-keeping for one erase block."""

    block_id: int
    next_page: int = 0
    valid: List[bool] = field(default_factory=list)
    erase_count: int = 0
    #: monotone sequence number stamped when the block filled — the age
    #: proxy used by FIFO / cost-benefit victim selection
    filled_seq: int = -1
    #: grown bad: never allocated from or erased again
    retired: bool = False

    def live_pages(self) -> int:
        return sum(self.valid)

    def utilization(self) -> float:
        return self.live_pages() / len(self.valid) if self.valid else 0.0


class _FreeBlockPool:
    """Free-block ids of one plane without materializing the id list.

    Order-equivalent to the original ``list(range(count))`` free list
    under the operations the FTL/GC/bad-block layers use: virgin ids
    leave from the front in ascending order, erased blocks re-enter at
    the tail (FIFO), ``remove`` may take any id.
    """

    __slots__ = ("_virgin_next", "_virgin_end", "_skipped", "_recycled",
                 "size")

    def __init__(self, count: int) -> None:
        self._virgin_next = 0
        self._virgin_end = count
        #: virgin ids removed (retired) before their first allocation
        self._skipped: set = set()
        self._recycled: deque = deque()
        #: ids in the pool, kept current by pop/append/remove
        self.size = count

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __contains__(self, block_id: int) -> bool:
        if (self._virgin_next <= block_id < self._virgin_end
                and block_id not in self._skipped):
            return True
        return block_id in self._recycled

    def __iter__(self) -> Iterator[int]:
        for block_id in range(self._virgin_next, self._virgin_end):
            if block_id not in self._skipped:
                yield block_id
        yield from self._recycled

    def pop(self, index: int = 0) -> int:
        if index != 0:
            raise IndexError("free-block pool only pops from the front")
        while self._virgin_next < self._virgin_end:
            block_id = self._virgin_next
            self._virgin_next += 1
            if block_id in self._skipped:
                self._skipped.discard(block_id)
                continue
            self.size -= 1
            return block_id
        if not self._recycled:
            raise IndexError("pop from empty free-block pool")
        self.size -= 1
        return self._recycled.popleft()

    def append(self, block_id: int) -> None:
        self._recycled.append(block_id)
        self.size += 1

    def remove(self, block_id: int) -> None:
        if (self._virgin_next <= block_id < self._virgin_end
                and block_id not in self._skipped):
            self._skipped.add(block_id)
            self.size -= 1
            return
        try:
            self._recycled.remove(block_id)
        except ValueError:
            raise ValueError(
                f"block {block_id} not in free-block pool") from None
        self.size -= 1


class PlaneAllocator:
    """Free-space management for one (channel, bank) pair.

    Keeps a free-block pool and an active block; pages are handed out
    append-only. The GC layer returns blocks to the pool after erasing.
    """

    def __init__(self, channel: int, bank: int, geometry: Geometry) -> None:
        self.channel = channel
        self.bank = bank
        self.geometry = geometry
        #: block states are materialized lazily: a 2 TB-class device has
        #: hundreds of thousands of blocks, most never touched in a run
        self.blocks: Dict[int, BlockState] = {}
        self.free_blocks = _FreeBlockPool(geometry.blocks_per_bank)
        self.active_block: Optional[int] = None
        #: cached BlockState of the active block. Only trusted when its
        #: block_id still matches ``active_block`` — GC layers reset
        #: ``active_block`` directly, and the guard makes that safe
        #: without touching their call sites.
        self._active_state: Optional[BlockState] = None
        self._fill_counter = 0
        self._pages_per_block = geometry.pages_per_block

    def _state(self, block_id: int) -> BlockState:
        state = self.blocks.get(block_id)
        if state is None:
            state = BlockState(block_id,
                               valid=[False] * self.geometry.pages_per_block)
            self.blocks[block_id] = state
        return state

    # ------------------------------------------------------------------
    def free_page_count(self) -> int:
        pages_per_block = self._pages_per_block
        count = self.free_blocks.size * pages_per_block
        if self.active_block is not None:
            state = self._active_state
            if state is None or state.block_id != self.active_block:
                state = self._state(self.active_block)
                self._active_state = state
            count += pages_per_block - state.next_page
        return count

    def allocate_page(self) -> PpaTuple:
        """Next append point, as a plain ``(channel, bank, block, page)``
        tuple; raises :class:`OutOfSpaceError` when full."""
        if self.active_block is None:
            if not self.free_blocks:
                raise OutOfSpaceError(
                    f"(ch{self.channel}, bk{self.bank}) has no free blocks")
            self.active_block = self.free_blocks.pop(0)
            state = self._state(self.active_block)
            self._active_state = state
        else:
            state = self._active_state
            if state is None or state.block_id != self.active_block:
                state = self._state(self.active_block)
                self._active_state = state
        page = state.next_page
        ppa = (self.channel, self.bank, state.block_id, page)
        state.valid[page] = True
        state.next_page = page + 1
        if page + 1 == self._pages_per_block:
            state.filled_seq = self._fill_counter
            self._fill_counter += 1
            self.active_block = None
            self._active_state = None
        return ppa

    def invalidate(self, ppa: PpaTuple) -> None:
        self._state(ppa[2]).valid[ppa[3]] = False

    def victim_candidates(self, policy: str = "greedy") -> List[int]:
        """Fully-written blocks, best victim first.

        Policies: ``greedy`` (fewest live pages — reclaims the most per
        erase), ``fifo`` (oldest fill first — even wear, oblivious to
        utilization), ``cost-benefit`` (age × (1-u)/(1+u) — balances
        reclaimed space against the copy cost, favouring old cold
        blocks).
        """
        full = [
            b for b, state in self.blocks.items()
            if state.next_page == self.geometry.pages_per_block
            and b != self.active_block and not state.retired
        ]
        if policy == "greedy":
            return sorted(full, key=lambda b: self.blocks[b].live_pages())
        if policy == "fifo":
            return sorted(full, key=lambda b: self.blocks[b].filled_seq)
        if policy == "cost-benefit":
            def score(b: int) -> float:
                state = self.blocks[b]
                age = self._fill_counter - state.filled_seq
                u = state.utilization()
                return age * (1.0 - u) / (1.0 + u)
            return sorted(full, key=score, reverse=True)
        raise ValueError(f"unknown GC policy {policy!r}")

    def release_block(self, block_id: int) -> None:
        """Return an erased block to the free pool."""
        state = self._state(block_id)
        state.next_page = 0
        state.valid = [False] * self.geometry.pages_per_block
        state.erase_count += 1
        self.free_blocks.append(block_id)

    def retire_block(self, block_id: int) -> None:
        """Take a grown-bad block out of service permanently.

        The block leaves the free pool (if present), stops being the
        active block, and is never offered as a GC victim again. Callers
        must have relocated any live pages first.
        """
        state = self._state(block_id)
        state.retired = True
        state.valid = [False] * self.geometry.pages_per_block
        state.next_page = self.geometry.pages_per_block
        if block_id in self.free_blocks:
            self.free_blocks.remove(block_id)
        if self.active_block == block_id:
            self.active_block = None

    def retired_count(self) -> int:
        return sum(1 for state in self.blocks.values() if state.retired)


class PageMapFTL:
    """LPN → PPA map with conventional channel striping.

    The *stripe target* of logical page ``n`` is::

        channel = n % channels
        bank    = (n // channels) % banks_per_channel

    so LBA-sequential streams fan out over every channel, then every
    bank — the layout file systems assume (§2.1).
    """

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        self.map: Dict[int, PpaTuple] = {}
        self.planes: Dict[Tuple[int, int], PlaneAllocator] = {
            (c, b): PlaneAllocator(c, b, geometry)
            for c in range(geometry.channels)
            for b in range(geometry.banks_per_channel)
        }

    # ------------------------------------------------------------------
    def stripe_target(self, lpn: int) -> Tuple[int, int]:
        channel = lpn % self.geometry.channels
        bank = (lpn // self.geometry.channels) % self.geometry.banks_per_channel
        return channel, bank

    def lookup(self, lpn: int) -> Optional[PpaTuple]:
        return self.map.get(lpn)

    def allocate(self, lpn: int) -> Tuple[PpaTuple, Optional[PpaTuple]]:
        """Bind ``lpn`` to a fresh physical page.

        Returns ``(new_ppa, old_ppa)``; ``old_ppa`` is the invalidated
        previous location for overwrites, else None.
        """
        channel, bank = self.stripe_target(lpn)
        plane = self.planes[(channel, bank)]
        old = self.map.get(lpn)
        if old is not None:
            self.planes[(old[0], old[1])].invalidate(old)
        ppa = plane.allocate_page()
        self.map[lpn] = ppa
        return ppa, old

    def allocate_run(self, lpns: Sequence[int], start: int, floor: int,
                     reverse: Dict[int, int], out: List[PpaTuple],
                     collected: bool = False) -> int:
        """Bind ``lpns[start:]`` in order, stopping at a GC point.

        Per LPN this is :meth:`allocate` plus the collector's reverse-
        table update (``reverse`` maps page index -> LPN), after a
        check that the stripe target's free pages are not below
        ``floor``. New addresses are appended to ``out``. Returns the
        index of the first LPN whose plane is below the floor (the
        caller collects that plane and resumes there with
        ``collected=True``, which skips the check once), or
        ``len(lpns)`` when the run is done.
        """
        g = self.geometry
        channels = g.channels
        banks = g.banks_per_channel
        blocks_per_bank = g.blocks_per_bank
        pages_per_block = g.pages_per_block
        planes = self.planes
        fmap = self.map
        for i in range(start, len(lpns)):
            lpn = lpns[i]
            channel = lpn % channels
            bank = (lpn // channels) % banks
            plane = planes[(channel, bank)]
            if plane.free_page_count() < floor and not (
                    collected and i == start):
                return i
            old = fmap.get(lpn)
            if old is not None:
                planes[(old[0], old[1])].invalidate(old)
            ppa = plane.allocate_page()
            fmap[lpn] = ppa
            if old is not None:
                reverse.pop(((old[0] * banks + old[1]) * blocks_per_bank
                             + old[2]) * pages_per_block + old[3], None)
            reverse[((channel * banks + bank) * blocks_per_bank + ppa[2])
                    * pages_per_block + ppa[3]] = lpn
            out.append(ppa)
        return len(lpns)

    def trim(self, lpn: int) -> Optional[PpaTuple]:
        """Drop the mapping for ``lpn`` (discard)."""
        old = self.map.pop(lpn, None)
        if old is not None:
            self.planes[(old[0], old[1])].invalidate(old)
        return old

    # ------------------------------------------------------------------
    def free_fraction(self, channel: int, bank: int) -> float:
        plane = self.planes[(channel, bank)]
        return plane.free_page_count() / self.geometry.pages_per_bank

    def mapped_pages(self) -> int:
        return len(self.map)
