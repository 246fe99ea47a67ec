"""Summary statistics and output digests for the simulator benchmark.

Host times arrive already scaled to the reference host speed
(:mod:`bench_speed`). Latency percentiles are taken over every timed
call of a run; a tail percentile is only reported when at least
:data:`MIN_BEYOND` calls lie beyond it, below that it would be set by a
handful of outliers. A run repeats identical work, so each group of ops
has one host time per iteration, and a group's cost is its median
repetition.

Simulated outputs (end times, serving reports, layer attribution) are
folded into per-group SHA-256 digests. Floats enter as ``float.hex()``,
so a digest changes exactly when a single simulated bit changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, List, Optional, Sequence

import numpy as np

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def samples_beyond(count: int, fraction: float) -> int:
    """Samples strictly above the nearest-rank ``fraction`` percentile
    of ``count`` samples."""
    return count - math.ceil(fraction * count)


def percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of ``values`` (need not be sorted), or
    None when fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    count = len(values)
    if count == 0 or samples_beyond(count, fraction) < MIN_BEYOND:
        return None
    rank = math.ceil(fraction * count) - 1
    return float(np.partition(np.asarray(values, dtype=float), rank)[rank])


def median_total(tables: Sequence[Dict[str, float]]) -> float:
    """Sum over groups of each group's median repetition (seconds)."""
    seconds: Dict[str, List[float]] = {}
    for table in tables:
        for group, value in table.items():
            seconds.setdefault(group, []).append(value)
    return sum(statistics.median(values) for values in seconds.values())


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as :func:`statistics.quantiles` gives them
    (a single sample is its own quartiles)."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def canonical(value) -> object:
    """JSON-ready copy of ``value`` with every float as ``float.hex()``
    and tuples as lists, so :func:`json.dumps` is bit-exact."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


class DigestGroups:
    """Per-group running digests plus the number of ops in each group.

    A group is the unit a mismatch is charged to: every op of a group
    whose digest differs from the reference counts as failed.
    """

    def __init__(self) -> None:
        self._hashes: Dict[str, "hashlib._Hash"] = {}
        self.ops: Dict[str, int] = {}

    def fold(self, group: str, text: str, ops: int = 0) -> None:
        digest = self._hashes.get(group)
        if digest is None:
            digest = self._hashes[group] = hashlib.sha256()
            self.ops[group] = 0
        digest.update(text.encode())
        digest.update(b"\n")
        self.ops[group] += ops

    def fold_json(self, group: str, value, ops: int = 0) -> None:
        self.fold(group, json.dumps(canonical(value), sort_keys=True,
                                    separators=(",", ":")), ops)

    def digests(self) -> Dict[str, str]:
        return {group: digest.hexdigest()[:16]
                for group, digest in sorted(self._hashes.items())}


def combined_digest(groups: Dict[str, str]) -> str:
    """One digest over a ``{group: digest}`` table."""
    text = json.dumps(groups, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mismatched_ops(groups: Dict[str, str], ops: Dict[str, int],
                   reference: Dict[str, str]) -> int:
    """Ops charged as failed: every op of a group whose digest differs
    from ``reference``, plus one per reference group that never ran."""
    failed = sum(count for group, count in ops.items()
                 if reference.get(group) != groups.get(group))
    failed += sum(1 for group in reference if group not in groups)
    return failed
