"""Write-back flush order must not follow the string hash seed.

Tier keys carry dataset names, so a set of keys iterates in an order
that changes with ``PYTHONHASHSEED``. The tier keeps each group's keys
in insertion order, which fixes the order overlapping dirty regions are
flushed in, and with it every simulated time after the first flush.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.cache import CacheConfig, HostTierCache

SRC = Path(__file__).resolve().parents[2] / "src"


def test_group_keys_follow_insertion_order():
    tier = HostTierCache(CacheConfig(capacity_bytes=1 << 20))
    keys = [("dataset-%d" % index, (index,)) for index in range(12)]
    for key in keys:
        tier.insert(key, 8, 0.0, group="g")
    tier.invalidate(keys[3])
    tier.insert(keys[3], 8, 0.0, group="g")
    assert tier.group_keys("g") == keys[:3] + keys[4:] + [keys[3]]


def _monitor_trace(tmp_path: Path, hash_seed: str) -> bytes:
    """The pooled kill-device write-back monitor scenario, shortened to
    a 10 ms horizon, in a fresh interpreter under ``hash_seed``."""
    out = tmp_path / f"trace-{hash_seed}.json"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + ([os.environ["PYTHONPATH"]]
                                 if os.environ.get("PYTHONPATH") else [])))
    subprocess.run(
        [sys.executable, "-m", "repro", "monitor", "--devices", "3",
         "--kill-device", "1", "--cache-mb", "0.05", "--cache-write-back",
         "--rate", "6000", "--horizon", "0.01", "--trace-out", str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=300)
    return out.read_bytes()


def test_monitor_trace_is_identical_under_different_hash_seeds(tmp_path):
    assert _monitor_trace(tmp_path, "1") == _monitor_trace(tmp_path, "2")
