"""Least-Frequently-Used replacement with LRU tie-breaking.

Not part of the paper's evaluated set but a standard reference point; the
implementation uses frequency buckets of ordered dicts for O(1) amortised
operations (the classic O(1) LFU construction).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["LFUCache"]


class LFUCache(CachePolicy):
    """LFU with per-frequency LRU ordering (evicts the stalest min-freq)."""

    def __init__(self, capacity_bytes: int):
        super().__init__(capacity_bytes)
        self._size: dict[int, int] = {}
        self._freq: dict[int, int] = {}
        self._buckets: dict[int, OrderedDict[int, None]] = {}
        self._min_freq = 0
        self._used = 0

    def _bump(self, oid: int) -> None:
        f = self._freq[oid]
        bucket = self._buckets[f]
        del bucket[oid]
        if not bucket:
            del self._buckets[f]
            if self._min_freq == f:
                self._min_freq = f + 1
        self._freq[oid] = f + 1
        self._buckets.setdefault(f + 1, OrderedDict())[oid] = None

    def _evict_one(self) -> int:
        bucket = self._buckets[self._min_freq]
        victim, _ = bucket.popitem(last=False)
        if not bucket:
            del self._buckets[self._min_freq]
            if self._buckets:
                self._min_freq = min(self._buckets)
            else:
                self._min_freq = 0
        self._used -= self._size.pop(victim)
        del self._freq[victim]
        return victim

    def can_batch_hits(self) -> bool:
        # A hit bumps a per-object frequency, so every occurrence in a run
        # matters — the distinct-set shortcut doesn't apply and batching
        # would fall back to the early-stopping loop, which measures
        # *slower* than the simulator's flat loop (the extra membership
        # probe outweighs the skipped stats work).  Stay on the loop.
        return False

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        if oid in self._size:
            self._bump(oid)
            return HIT
        if not admit or size > self.capacity:
            return MISS
        evicted = []
        while self._used + size > self.capacity:
            evicted.append(self._evict_one())
        self._size[oid] = size
        self._freq[oid] = 1
        self._buckets.setdefault(1, OrderedDict())[oid] = None
        self._min_freq = 1
        self._used += size
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, oid: int) -> bool:
        return oid in self._size

    def __len__(self) -> int:
        return len(self._size)
