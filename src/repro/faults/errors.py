"""Typed failures of the flash reliability model.

These exceptions form the fault branch of the NDS error hierarchy (they
are re-exported from :mod:`repro.core.errors`). They live here — in a
leaf package with no ``repro.core`` dependency — because the flash
array raises them from underneath the core layers.

Every fault carries ``fail_time``: the model time at which the failure
became known to the issuing layer (after the full retry ladder for
reads, after the charged program/erase attempt for writes). Handlers
continue their timelines from that point, so error handling *costs
time* exactly like it does on a real device.
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "UncorrectableError",
    "DegradedReadError",
    "ProgramFailError",
    "EraseFailError",
]


def _named(ppa) -> str:
    """Message text for ``ppa``. The simulator's plain-tuple addresses
    read as :class:`~repro.nvm.address.PhysicalPageAddress`, with field
    names; anything else (the named type, a cluster extent label, None)
    reads as given."""
    if type(ppa) is tuple and len(ppa) == 4:
        # imported here: repro.nvm imports this module
        from repro.nvm.address import PhysicalPageAddress
        ppa = PhysicalPageAddress(*ppa)
    return f"{ppa}"


class FaultError(RuntimeError):
    """Base class for injected-fault failures."""

    def __init__(self, message: str, fail_time: float = 0.0) -> None:
        super().__init__(message)
        #: model time when the failure was detected
        self.fail_time = fail_time


class UncorrectableError(FaultError):
    """A page read exhausted the ECC read-retry ladder.

    ``retries`` counts the extra sensing rounds that were charged before
    the controller gave up; ``reason`` distinguishes wear/retention
    errors (``"ecc"``) from scripted injections (``"corrupt"``) and
    structural loss (``"channel_dead"``).
    """

    def __init__(self, ppa, fail_time: float, retries: int = 0,
                 reason: str = "ecc") -> None:
        super().__init__(
            f"uncorrectable read at {_named(ppa)} after {retries} retries"
            f" ({reason})", fail_time)
        self.ppa = ppa
        self.retries = retries
        self.reason = reason


class DegradedReadError(FaultError):
    """Parity reconstruction of a lost page failed (a second fault in
    the same parity group, or unreadable redundancy)."""

    def __init__(self, ppa, fail_time: float, detail: str = "") -> None:
        super().__init__(
            f"degraded read of {_named(ppa)} could not reconstruct"
            + (f": {detail}" if detail else ""), fail_time)
        self.ppa = ppa


class ProgramFailError(FaultError):
    """A page program reported status-fail (the classic grown-bad-block
    trigger). The failed block must be retired and its live pages
    relocated."""

    def __init__(self, ppa, fail_time: float, reason: str = "wear") -> None:
        super().__init__(f"program failure at {_named(ppa)} ({reason})",
                         fail_time)
        self.ppa = ppa
        self.reason = reason


class EraseFailError(FaultError):
    """A block erase reported status-fail; the block must be retired."""

    def __init__(self, channel: int, bank: int, block: int,
                 fail_time: float, reason: str = "wear") -> None:
        super().__init__(
            f"erase failure at ch{channel}/bk{bank}/blk{block} ({reason})",
            fail_time)
        self.channel = channel
        self.bank = bank
        self.block = block
        self.reason = reason
