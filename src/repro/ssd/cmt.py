"""DFTL-style cached mapping table (CMT) for the page-mapped FTL.

A real page-mapped FTL cannot hold the full logical-to-physical table in
device DRAM; it caches hot translation entries (DFTL, Gupta et al.,
ASPLOS'09) and pays a flash read to fetch a missing one.  This module
models that pressure as an LRU over logical page numbers with hit / miss /
eviction accounting and a configurable per-miss latency penalty, so each
admission scheme's verdict stream can be judged by *device-level* cost —
an admission policy that narrows the written working set also narrows the
translation working set.

The model is accounting-only: it never changes what the FTL writes or
erases, it measures which host-issued translations would have missed the
device's mapping cache.  GC-internal mapping updates are excluded — the
FTL walks its reverse map in-place during relocation, which DFTL services
from the victim block's out-of-band area, not the CMT.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CMTStats", "MappingTableCache"]


@dataclass
class CMTStats:
    """Translation-cache traffic counters.

    ``lookups == hits + misses`` is a conservation invariant the hypothesis
    suite pins against the FTL's ``translation_lookups`` counter.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MappingTableCache:
    """LRU translation cache over logical page numbers.

    Parameters
    ----------
    capacity_entries:
        How many translation entries fit in device DRAM.
    miss_penalty_us:
        Latency charged per miss (one flash page read to fetch the
        translation page; DFTL's canonical cost).
    """

    def __init__(self, capacity_entries: int, *, miss_penalty_us: float = 25.0):
        if capacity_entries <= 0:
            raise ValueError("capacity_entries must be positive")
        if miss_penalty_us < 0:
            raise ValueError("miss_penalty_us must be >= 0")
        self.capacity_entries = int(capacity_entries)
        self.miss_penalty_us = float(miss_penalty_us)
        self.stats = CMTStats()
        self._entries: OrderedDict[int, None] = OrderedDict()

    def lookup(self, lpn: int) -> bool:
        """Translate ``lpn``; returns ``True`` on a CMT hit.

        A miss loads the entry (evicting the LRU entry when full) — after
        a trim the entry stays cached: it then caches the *unmapped*
        mapping, which is still a translation the device can answer from
        DRAM.
        """
        stats = self.stats
        stats.lookups += 1
        entries = self._entries
        if lpn in entries:
            entries.move_to_end(lpn)
            stats.hits += 1
            return True
        stats.misses += 1
        if len(entries) >= self.capacity_entries:
            entries.popitem(last=False)
            stats.evictions += 1
        entries[lpn] = None
        return False

    @property
    def added_latency_us(self) -> float:
        """Total translation-fetch latency this run paid on CMT misses."""
        return self.stats.misses * self.miss_penalty_us

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        self.stats = CMTStats()
        self._entries.clear()
