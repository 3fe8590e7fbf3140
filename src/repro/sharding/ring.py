"""Consistent-hash placement of documents onto shards.

Documents are placed by hashing their id (the video id — the unit the
paper's metadata decomposes around) onto a ring of virtual nodes. Each
shard contributes :data:`VNODES` points; a key is owned by the first live
vnode clockwise from the key's hash. Consistent hashing gives the two
properties the fleet needs:

* **determinism** — placement is a pure function of the shard names and
  the key, so two fleets built from the same journal agree byte-for-byte;
* **minimal movement** — marking a shard dead reassigns only *its* keys
  (each to the next live shard on the ring), never shuffling documents
  between surviving shards.

Hashing uses the first eight bytes of an MD5 digest — stable across
processes and Python versions (unlike ``hash()`` under
``PYTHONHASHSEED``) and, unlike CRC32 on the short, near-identical
labels video ids tend to be, well mixed enough that the vnode arcs come
out balanced.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

from repro.errors import ShardingError

__all__ = ["HashRing"]

#: Virtual nodes (ring points) per shard.
VNODES = 32


def _point(label: str) -> int:
    digest = hashlib.md5(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over named shards with virtual nodes."""

    def __init__(self, shards: Iterable[str]):
        self._shards = sorted(shards)
        if not self._shards:
            raise ShardingError("a hash ring needs at least one shard")
        if len(set(self._shards)) != len(self._shards):
            raise ShardingError(f"duplicate shard names in {self._shards}")
        points: list[tuple[int, str]] = []
        for shard in self._shards:
            for index in range(VNODES):
                points.append((_point(f"{shard}#{index}"), shard))
        # ties (crc collisions across labels) break by shard name so the
        # ring order is a pure function of the configuration
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    @property
    def shards(self) -> list[str]:
        return list(self._shards)

    def extended(self, shard: str) -> "HashRing":
        """A new ring with ``shard`` added.

        The complement of death: adding a shard steals only the keys its
        own vnode arcs now cover — every other key keeps its owner, which
        is what makes an online split move the minimum set of documents.
        The result is identical to building a fresh ring from the full
        name set (vnode points are position-independent), so a fleet that
        grew online and a fleet built from the final topology agree.
        """
        if shard in self._shards:
            raise ShardingError(f"shard {shard!r} is already on the ring")
        return HashRing([*self._shards, shard])

    def owner(self, key: str, exclude: Iterable[str] = ()) -> str:
        """The shard owning ``key``: the first ring point clockwise from
        the key's hash whose shard is not in ``exclude``."""
        dead = set(exclude)
        live = [s for s in self._shards if s not in dead]
        if not live:
            raise ShardingError(
                f"no live shard can own {key!r}: all of {self._shards} "
                f"are excluded"
            )
        start = bisect.bisect_right(self._hashes, _point(key))
        n = len(self._points)
        for step in range(n):
            _, shard = self._points[(start + step) % n]
            if shard not in dead:
                return shard
        raise ShardingError(f"ring walk failed for {key!r}")  # pragma: no cover

    def successors(self, key: str, exclude: Iterable[str] = ()) -> list[str]:
        """Distinct live shards in ring order starting at ``key``'s owner
        (the failover/rebalance preference order for the key)."""
        dead = set(exclude)
        start = bisect.bisect_right(self._hashes, _point(key))
        n = len(self._points)
        seen: list[str] = []
        for step in range(n):
            _, shard = self._points[(start + step) % n]
            if shard not in dead and shard not in seen:
                seen.append(shard)
        return seen
