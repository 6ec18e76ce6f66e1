"""Segmented LRU with three segments (the paper's "S3LRU").

Karedla/Love/Wherry (1994) segmented LRU, generalised to *k* levels:

* a missed object enters the tail level (probationary segment);
* a hit promotes the object one level up (to that level's MRU end);
* a level that overflows demotes its LRU object one level down;
* overflow of the bottom level evicts from the cache.

Promotion-on-hit means an object needs repeated hits to climb, so scan/
one-time traffic churns only the bottom segment — exactly the property the
paper contrasts against plain LRU.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["S3LRUCache"]


class S3LRUCache(CachePolicy):
    """k-segment LRU (k = 3 by default, byte-partitioned evenly)."""

    def __init__(self, capacity_bytes: int, n_segments: int = 3):
        super().__init__(capacity_bytes)
        if n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        self.n_segments = n_segments
        # segment 0 = probationary (entry level), k-1 = most protected
        self._segments: list[OrderedDict[int, int]] = [
            OrderedDict() for _ in range(n_segments)
        ]
        self._seg_used = [0] * n_segments
        self._where: dict[int, int] = {}  # oid -> segment index
        self._seg_cap = capacity_bytes // n_segments

    def _overflow(self, level: int, evicted: list[int]) -> None:
        """Demote LRU entries of ``level`` downwards until it fits."""
        while self._seg_used[level] > self._seg_cap:
            oid, size = self._segments[level].popitem(last=False)
            self._seg_used[level] -= size
            if level == 0:
                del self._where[oid]
                evicted.append(oid)
            else:
                self._segments[level - 1][oid] = size
                self._seg_used[level - 1] += size
                self._where[oid] = level - 1
                self._overflow(level - 1, evicted)

    def can_batch_hits(self) -> bool:
        # Hit promotion is stateful (and can demote/evict via segment-quota
        # rounding), so batching uses the base early-stopping loop — still
        # profitable because it skips the simulator's per-request overhead.
        return True

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        level = self._where.get(oid)
        if level is not None:
            seg = self._segments[level]
            sz = seg.pop(oid)
            self._seg_used[level] -= sz
            up = min(level + 1, self.n_segments - 1)
            self._segments[up][oid] = sz
            self._seg_used[up] += sz
            self._where[oid] = up
            evicted: list[int] = []
            self._overflow(up, evicted)
            # A hit can only demote others, never evict: bottom-level
            # overflow is impossible while total bytes are unchanged —
            # except when segment quotas round down; guard anyway.
            return AccessResult(hit=True, evicted=tuple(evicted)) if evicted else HIT
        if not admit or size > self._seg_cap:
            # An object larger than one segment can never be resident.
            return MISS
        evicted = []
        self._segments[0][oid] = size
        self._seg_used[0] += size
        self._where[oid] = 0
        self._overflow(0, evicted)
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

    @property
    def used_bytes(self) -> int:
        return sum(self._seg_used)

    def __contains__(self, oid: int) -> bool:
        return oid in self._where

    def __len__(self) -> int:
        return len(self._where)
