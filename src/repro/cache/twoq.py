"""2Q replacement (Johnson & Shasha, VLDB'94).

Not part of the paper's evaluated set, but the classic scan-resistant
design its S3LRU/ARC comparisons descend from — included for completeness
of the substrate.  Structure:

* ``A1in``  — FIFO for first-touch objects (a fraction of capacity);
* ``A1out`` — ghost FIFO remembering recently demoted first-touchers;
* ``Am``    — main LRU; entered only via an ``A1out`` ghost hit, i.e. by
  proving a second access at medium distance.

One-time objects churn through ``A1in`` without ever displacing ``Am`` —
the same pollution-control goal the paper attacks with its admission
filter, achieved structurally instead.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy

__all__ = ["TwoQCache"]


class TwoQCache(CachePolicy):
    """Size-aware 2Q.

    Parameters
    ----------
    kin:
        Fraction of capacity for the ``A1in`` FIFO (paper default 25 %).
    kout:
        Ghost capacity as a fraction of cache capacity — counted in
        *bytes of remembered objects* (paper default 50 %).
    """

    def __init__(self, capacity_bytes: int, *, kin: float = 0.25, kout: float = 0.5):
        super().__init__(capacity_bytes)
        if not 0.0 < kin < 1.0:
            raise ValueError("kin must be in (0, 1)")
        if kout <= 0:
            raise ValueError("kout must be positive")
        self._a1in: OrderedDict[int, int] = OrderedDict()
        self._a1out: OrderedDict[int, int] = OrderedDict()  # ghosts
        self._am: OrderedDict[int, int] = OrderedDict()
        self._a1in_bytes = 0
        self._a1out_bytes = 0
        self._am_bytes = 0
        self._a1in_cap = max(1, int(capacity_bytes * kin))
        self._a1out_cap = max(1, int(capacity_bytes * kout))

    # ------------------------------------------------------------ plumbing

    def _trim_ghosts(self) -> None:
        while self._a1out and self._a1out_bytes > self._a1out_cap:
            _, size = self._a1out.popitem(last=False)
            self._a1out_bytes -= size

    def _evict_for(self, size: int, evicted: list[int]) -> None:
        """Free space per the 2Q REclaimfor rule."""
        while self.used_bytes + size > self.capacity:
            if self._a1in and self._a1in_bytes > self._a1in_cap:
                oid, sz = self._a1in.popitem(last=False)
                self._a1in_bytes -= sz
                self._a1out[oid] = sz
                self._a1out_bytes += sz
                self._trim_ghosts()
            elif self._am:
                oid, sz = self._am.popitem(last=False)
                self._am_bytes -= sz
            elif self._a1in:
                oid, sz = self._a1in.popitem(last=False)
                self._a1in_bytes -= sz
                self._a1out[oid] = sz
                self._a1out_bytes += sz
                self._trim_ghosts()
            else:  # pragma: no cover - nothing resident, loop cannot run
                break
            evicted.append(oid)

    # --------------------------------------------------------------- access

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        if oid in self._am:
            self._am.move_to_end(oid)
            return HIT
        if oid in self._a1in:
            # 2Q leaves A1in order untouched on hit (correlated references).
            return HIT
        if not admit or size > self.capacity:
            return MISS

        evicted: list[int] = []
        if oid in self._a1out:
            # Second touch at medium distance: promote into Am.
            sz = self._a1out.pop(oid)
            self._a1out_bytes -= sz
            self._evict_for(size, evicted)
            self._am[oid] = size
            self._am_bytes += size
        else:
            self._evict_for(size, evicted)
            self._a1in[oid] = size
            self._a1in_bytes += size
        return AccessResult(hit=False, inserted=True, evicted=tuple(evicted))

    # ------------------------------------------------------------ interface

    @property
    def used_bytes(self) -> int:
        return self._a1in_bytes + self._am_bytes

    def __contains__(self, oid: int) -> bool:
        return oid in self._a1in or oid in self._am

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)
