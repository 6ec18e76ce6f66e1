"""First-In-First-Out replacement: eviction order ignores recency."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["FIFOCache"]


class FIFOCache(CachePolicy):
    """FIFO — identical bookkeeping to LRU minus the hit promotion."""

    def __init__(self, capacity_bytes: int):
        super().__init__(capacity_bytes)
        self._entries: OrderedDict[int, int] = OrderedDict()  # oid -> size
        self._used = 0

    def access_if_present(self, oid: int, size: int) -> AccessResult | None:
        # A FIFO hit has no side effects, so the peek is one lookup.
        self._validate_request(size)
        return HIT if oid in self._entries else None

    def can_batch_hits(self) -> bool:
        return True

    def access_batch(self, oids, sizes, distinct=None) -> tuple[int, tuple[int, ...]]:
        # FIFO hits mutate nothing, so a confirmed all-resident run is a
        # pure no-op: one membership sweep over the distinct objects.
        n = len(oids)
        if n == 0:
            return 0, ()
        if distinct is None:
            if isinstance(oids, np.ndarray):  # plain ints hash faster
                oids = oids.tolist()
                sizes = sizes.tolist()
            if min(sizes) <= 0:
                return super().access_batch(oids, sizes)
            distinct = set(oids)
        entries = self._entries
        for o in distinct:
            if o not in entries:
                return super().access_batch(oids, sizes)
        return n, ()

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        if oid in self._entries:
            return HIT
        if not admit or size > self.capacity:
            return MISS
        evicted = []
        while self._used + size > self.capacity:
            victim, vsize = self._entries.popitem(last=False)
            self._used -= vsize
            evicted.append(victim)
        self._entries[oid] = size
        self._used += size
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, oid: int) -> bool:
        return oid in self._entries

    def __len__(self) -> int:
        return len(self._entries)
