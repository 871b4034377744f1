"""Which fleet shard serves a device: a pure function of host and count.

Each shard of a fleet (:mod:`repro.runtime.fleet`) owns whole devices —
their trace files, WAL and checkpoints — so the device→shard assignment
must be

* **deterministic** — the same host maps to the same shard in every
  process and every run (the routing is part of the replay contract),
  which rules out Python's builtin ``hash`` (salted per process via
  ``PYTHONHASHSEED``); points come from BLAKE2b instead;
* **balanced** — with 64 virtual nodes per shard the busiest shard
  carries only a bounded multiple of the idlest one's devices.

:func:`shard_of` places each shard's virtual nodes on a 64-bit hash
ring and gives a host to the first node at or after the host's own
point.  The fleet records its shard count once, so a fleet's split
never changes; the ring only means that a different count would move
about 1/N of the hosts, not all of them.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Tuple

#: Virtual nodes per shard.  Part of the routing contract: every
#: existing fleet directory's split depends on it.
REPLICAS = 64


def _point(key: str) -> int:
    """A stable 64-bit ring position for ``key``."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@functools.lru_cache(maxsize=None)
def _ring(shards: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The ring's sorted points and the shard owning each.

    Two shards tied at one point sort by shard id, so the lower id
    owns it.
    """
    nodes = sorted(
        (_point(f"shard:{shard}:{replica}"), shard)
        for shard in range(shards)
        for replica in range(REPLICAS)
    )
    return (
        tuple(point for point, _ in nodes),
        tuple(shard for _, shard in nodes),
    )


def shard_of(host: str, shards: int) -> int:
    """The shard in ``0..shards-1`` that serves ``host``."""
    if shards < 1:
        raise ValueError(f"a fleet needs at least one shard, got {shards}")
    points, owners = _ring(shards)
    index = bisect.bisect_left(points, _point(host))
    return owners[index % len(points)]  # past the last point: wrap


__all__ = ["REPLICAS", "shard_of"]
