"""GDSF — Greedy-Dual-Size-Frequency (Cherkasova 1998).

A size-aware web-cache policy: priority ``L + frequency · cost / size``
(cost = 1 here), evict the minimum, and raise the global inflation clock
``L`` to the evicted priority so resident objects age.  Small, frequently
requested objects are protected — exactly the trade a photo cache wants
when optimising *file* hit rate under mixed thumbnail/original sizes.

Implemented with a heap under lazy invalidation: each priority update
pushes a fresh entry, stale ones are skipped at pop time.
"""

from __future__ import annotations

import heapq

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["GDSFCache"]


class GDSFCache(CachePolicy):
    """Greedy-Dual-Size-Frequency with unit miss cost."""

    def __init__(self, capacity_bytes: int):
        super().__init__(capacity_bytes)
        self._size: dict[int, int] = {}
        self._freq: dict[int, int] = {}
        self._prio: dict[int, float] = {}
        self._heap: list[tuple[float, int, int]] = []  # (prio, seq, oid)
        self._clock = 0.0
        self._seq = 0
        self._used = 0

    def _push(self, oid: int) -> None:
        prio = self._clock + self._freq[oid] / self._size[oid]
        self._prio[oid] = prio
        self._seq += 1
        heapq.heappush(self._heap, (prio, self._seq, oid))

    def _evict_one(self) -> int:
        while True:
            prio, _, oid = heapq.heappop(self._heap)
            if self._prio.get(oid) == prio and oid in self._size:
                self._clock = prio  # inflation: survivors age relatively
                self._used -= self._size.pop(oid)
                del self._freq[oid]
                del self._prio[oid]
                return oid

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        if oid in self._size:
            self._freq[oid] += 1
            self._push(oid)
            return HIT
        if not admit or size > self.capacity:
            return MISS
        evicted = []
        while self._used + size > self.capacity:
            evicted.append(self._evict_one())
        self._size[oid] = size
        self._freq[oid] = 1
        self._used += size
        self._push(oid)
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, oid: int) -> bool:
        return oid in self._size

    def __len__(self) -> int:
        return len(self._size)
