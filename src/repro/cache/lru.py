"""Least-Recently-Used replacement — the paper's baseline policy."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["LRUCache"]


class LRUCache(CachePolicy):
    """Classic LRU over an :class:`~collections.OrderedDict` (O(1) per op).

    Insertion order = recency order: most recent at the right end, victims
    popped from the left.
    """

    def __init__(self, capacity_bytes: int):
        super().__init__(capacity_bytes)
        self._entries: OrderedDict[int, int] = OrderedDict()  # oid -> size
        self._used = 0

    def access_if_present(self, oid: int, size: int) -> AccessResult | None:
        # No exception-based probe: raising KeyError costs ~1 µs, which on
        # miss-heavy streams (the admission regime) dwarfs the saved lookup.
        # Inline size check and the shared ``cache.base.HIT``: on the hot
        # loop, a Python frame or a per-hit allocation costs more than a hit.
        if size <= 0:
            raise ValueError("object size must be positive")
        if oid not in self._entries:
            return None
        self._entries.move_to_end(oid)
        return HIT

    def can_batch_hits(self) -> bool:
        return True

    def access_batch(self, oids, sizes, distinct=None) -> tuple[int, tuple[int, ...]]:
        # A run of LRU hits only reorders recency, and only the *last*
        # occurrence of each object decides its final position: replaying
        # the run is equivalent to one move_to_end per distinct object in
        # ascending order of last occurrence (untouched residents keep
        # their relative order underneath).  The segment plan precomputes
        # exactly that order (``distinct``), so the happy path touches each
        # distinct object twice — one membership probe, one move — and the
        # repeats inside the run cost nothing.
        n = len(oids)
        if n == 0:
            return 0, ()
        entries = self._entries
        if distinct is None:
            if isinstance(oids, np.ndarray):  # plain ints hash faster
                oids = oids.tolist()
                sizes = sizes.tolist()
            if min(sizes) <= 0:
                # Replay per-request so the invalid size raises at its index.
                return super().access_batch(oids, sizes)
            distinct = list(dict.fromkeys(reversed(oids)))
            distinct.reverse()
        for o in distinct:
            if o not in entries:
                # Not the all-hit run the caller expected — fall back to
                # the exact early-stopping loop.
                return super().access_batch(oids, sizes)
        move = entries.move_to_end
        for o in distinct:
            move(o)
        return n, ()

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        if size <= 0:
            raise ValueError("object size must be positive")
        entries = self._entries
        if oid in entries:
            entries.move_to_end(oid)
            return HIT
        if not admit or size > self.capacity:
            return MISS
        evicted = []
        while self._used + size > self.capacity:
            victim, vsize = entries.popitem(last=False)
            self._used -= vsize
            evicted.append(victim)
        entries[oid] = size
        self._used += size
        # Positional: keywords make the NamedTuple build ≈ 1.7× slower.
        return AccessResult(False, True, tuple(evicted))

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, oid: int) -> bool:
        return oid in self._entries

    def __len__(self) -> int:
        return len(self._entries)
