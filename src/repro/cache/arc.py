"""ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

Byte-weighted adaptation of the original page-based algorithm:

* ``T1`` holds objects seen once recently, ``T2`` objects seen at least
  twice; ``B1``/``B2`` are their ghost (metadata-only) extensions.
* The adaptation target ``p`` is kept in *bytes*: a ghost hit in B1 grows
  ``p`` (favour recency), a ghost hit in B2 shrinks it (favour frequency),
  each step weighted by the byte ratio of the opposite ghost list — the
  direct size-aware generalisation of the paper's unit-page rule.
* Invariants maintained: ``T1+T2 ≤ c`` (bytes), ``T1+B1 ≤ c``,
  ``T1+T2+B1+B2 ≤ 2c``.

Admission bypass (``admit=False``) skips the insertion entirely — the
object neither displaces residents nor enters the ghost lists, mirroring
how the paper's classification front-end returns one-time photos straight
to the client.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["ARCCache"]


class ARCCache(CachePolicy):
    """Size-aware ARC."""

    def __init__(self, capacity_bytes: int):
        super().__init__(capacity_bytes)
        self._t1: OrderedDict[int, int] = OrderedDict()
        self._t2: OrderedDict[int, int] = OrderedDict()
        self._b1: OrderedDict[int, int] = OrderedDict()
        self._b2: OrderedDict[int, int] = OrderedDict()
        self._t1_bytes = 0
        self._t2_bytes = 0
        self._b1_bytes = 0
        self._b2_bytes = 0
        self._p = 0.0  # adaptation target for T1, in bytes

    # ------------------------------------------------------------ internals

    def _replace(self, incoming_in_b2: bool, evicted: list[int]) -> None:
        """Evict one object from T1 or T2 into its ghost list."""
        # With byte-weighted sizes the unit-page invariant "preferred list
        # is non-empty" can break (e.g. T2 empty while t1_bytes <= p), so
        # fall back to whichever list has residents.  At least one does:
        # _make_room only runs when t1_bytes + t2_bytes + size > c and
        # size > c inserts are rejected up front.
        if self._t1 and (
            not self._t2
            or self._t1_bytes > self._p
            or (incoming_in_b2 and self._t1_bytes >= max(self._p, 1))
        ):
            oid, size = self._t1.popitem(last=False)
            self._t1_bytes -= size
            self._b1[oid] = size
            self._b1_bytes += size
        else:
            oid, size = self._t2.popitem(last=False)
            self._t2_bytes -= size
            self._b2[oid] = size
            self._b2_bytes += size
        evicted.append(oid)

    def _trim_ghosts(self) -> None:
        """Enforce |T1|+|B1| ≤ c and total directory ≤ 2c (in bytes)."""
        c = self.capacity
        while self._b1 and self._t1_bytes + self._b1_bytes > c:
            _, size = self._b1.popitem(last=False)
            self._b1_bytes -= size
        while (
            self._b2
            and self._t1_bytes + self._t2_bytes + self._b1_bytes + self._b2_bytes
            > 2 * c
        ):
            _, size = self._b2.popitem(last=False)
            self._b2_bytes -= size

    def _make_room(self, size: int, incoming_in_b2: bool, evicted: list[int]) -> None:
        while self._t1_bytes + self._t2_bytes + size > self.capacity:
            self._replace(incoming_in_b2, evicted)

    # --------------------------------------------------------------- access

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        c = self.capacity

        # Case I: hit in T1 or T2 — promote to T2 MRU.
        if oid in self._t1:
            sz = self._t1.pop(oid)
            self._t1_bytes -= sz
            self._t2[oid] = sz
            self._t2_bytes += sz
            return HIT
        if oid in self._t2:
            self._t2.move_to_end(oid)
            return HIT

        if not admit or size > c:
            return MISS

        evicted: list[int] = []

        # Case II: ghost hit in B1 — grow p toward recency.
        if oid in self._b1:
            ratio = max(self._b2_bytes / max(self._b1_bytes, 1), 1.0)
            self._p = min(self._p + ratio * size, float(c))
            sz = self._b1.pop(oid)
            self._b1_bytes -= sz
            self._make_room(size, incoming_in_b2=False, evicted=evicted)
            self._t2[oid] = size
            self._t2_bytes += size
            self._trim_ghosts()
            return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

        # Case III: ghost hit in B2 — shrink p toward frequency.
        if oid in self._b2:
            ratio = max(self._b1_bytes / max(self._b2_bytes, 1), 1.0)
            self._p = max(self._p - ratio * size, 0.0)
            sz = self._b2.pop(oid)
            self._b2_bytes -= sz
            self._make_room(size, incoming_in_b2=True, evicted=evicted)
            self._t2[oid] = size
            self._t2_bytes += size
            self._trim_ghosts()
            return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

        # Case IV: cold miss — insert into T1 MRU.
        self._make_room(size, incoming_in_b2=False, evicted=evicted)
        self._t1[oid] = size
        self._t1_bytes += size
        self._trim_ghosts()
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

    # ------------------------------------------------------------ interface

    @property
    def used_bytes(self) -> int:
        return self._t1_bytes + self._t2_bytes

    def __contains__(self, oid: int) -> bool:
        return oid in self._t1 or oid in self._t2

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)
