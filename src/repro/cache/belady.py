"""Belady's offline-optimal replacement (MIN) — the paper's upper bound.

Belady needs the future: for each trace position the index of the *next*
access to the same object.  :func:`compute_next_use` derives that in one
vectorised backward pass; :class:`BeladyCache` then evicts the resident
object whose next use is farthest away (never-again objects first), using a
max-heap with lazy invalidation for O(log n) per operation.

For unit-size objects this is the exact optimum (MIN); with variable sizes
the farthest-next-use greedy is the standard approximation used in cache
papers (optimal eviction with sizes is NP-hard).

By default objects with *no* future use are not inserted at all
(``bypass_dead=True``): this cannot lower the hit rate — such an object can
never produce a hit — and matches the spirit of the paper's "Ideal"
upper-bound configurations by not counting useless SSD writes.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["BeladyCache", "compute_next_use"]

_NEVER = np.iinfo(np.int64).max


def compute_next_use(object_ids: np.ndarray) -> np.ndarray:
    """For each position ``i``, the next ``j > i`` with the same object.

    Positions with no later access get ``np.iinfo(int64).max``.  Single
    vectorised pass: group positions by object, then shift within groups.
    """
    object_ids = np.ascontiguousarray(object_ids, dtype=np.int64)
    n = object_ids.shape[0]
    next_use = np.full(n, _NEVER, dtype=np.int64)
    # Stable sort by object groups equal ids together in position order.
    order = np.argsort(object_ids, kind="stable")
    sorted_ids = object_ids[order]
    same_as_next = sorted_ids[:-1] == sorted_ids[1:]
    src = order[:-1][same_as_next]      # position whose successor exists
    dst = order[1:][same_as_next]       # that successor's position
    next_use[src] = dst
    return next_use


class BeladyCache(CachePolicy):
    """Farthest-next-use eviction driven by a precomputed oracle.

    The caller must feed accesses *in trace order*; each ``access`` call
    advances an internal clock used to index ``next_use``.
    """

    def __init__(
        self,
        capacity_bytes: int,
        next_use: np.ndarray,
        *,
        bypass_dead: bool = True,
    ):
        super().__init__(capacity_bytes)
        self._next_use = np.ascontiguousarray(next_use, dtype=np.int64)
        self.bypass_dead = bypass_dead
        self._clock = 0
        self._size: dict[int, int] = {}
        self._obj_next: dict[int, int] = {}  # oid -> its next use index
        self._heap: list[tuple[int, int]] = []  # (-next_use, oid), lazy
        self._used = 0

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        if self._clock >= self._next_use.shape[0]:
            raise RuntimeError("BeladyCache ran past its oracle horizon")
        nxt = int(self._next_use[self._clock])
        self._clock += 1

        if oid in self._size:
            self._obj_next[oid] = nxt
            heapq.heappush(self._heap, (-nxt, oid))
            return HIT

        if (
            not admit
            or size > self.capacity
            or (self.bypass_dead and nxt == _NEVER)
        ):
            return MISS

        evicted = []
        while self._used + size > self.capacity:
            evicted.append(self._evict_farthest())
        self._size[oid] = size
        self._obj_next[oid] = nxt
        heapq.heappush(self._heap, (-nxt, oid))
        self._used += size
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

    def _evict_farthest(self) -> int:
        while True:
            neg_next, oid = heapq.heappop(self._heap)
            # Lazy invalidation: skip stale heap entries.
            if self._obj_next.get(oid) == -neg_next and oid in self._size:
                self._used -= self._size.pop(oid)
                del self._obj_next[oid]
                return oid

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, oid: int) -> bool:
        return oid in self._size

    def __len__(self) -> int:
        return len(self._size)
