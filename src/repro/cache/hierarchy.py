"""DRAM + SSD two-level cache within a single server.

Production photo caches front the SSD with a small DRAM cache (the paper's
Eq. 5/6 read "from the HDD to the DRAM" — DRAM is the staging tier).  The
interesting interaction with the paper's scheme: *admission control applies
to the SSD tier only*.  One-time photos still get served from DRAM while
they stay hot for seconds, but never touch the flash.

Semantics
---------
* Lookup: L1 (DRAM) first, then L2 (SSD).  An L2 hit promotes the object
  into L1 (inclusive towards the top, as real photo stacks behave).
* Miss: the object always enters L1 (DRAM writes are free); it enters L2
  only if the caller admits it.
* Objects evicted from L1 are *not* written back to L2 (read-only cache —
  backend holds the truth), so L1 eviction is silent.

``AccessResult`` accounting: ``hit`` covers a hit in either level;
``inserted``/``evicted`` report **L2 (SSD) state only**, because those are
the flash writes the paper counts.  L1 state is observable via
``l1_hits``/``l2_hits`` counters.
"""

from __future__ import annotations

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy
from repro.cache.lru import LRUCache

__all__ = ["HierarchicalCache"]


class HierarchicalCache(CachePolicy):
    """DRAM LRU in front of any SSD-tier policy.

    Parameters
    ----------
    dram:
        The L1 policy (typically a small :class:`~repro.cache.lru.LRUCache`),
        or ``None`` for a zero-size DRAM tier — the degenerate configuration
        in which this wrapper is a transparent shell over ``ssd`` (the
        differential property the hypothesis suite pins down).
    ssd:
        The L2 policy (any :class:`~repro.cache.base.CachePolicy`).

    ``capacity`` reported by this object is the SSD capacity — the resource
    the paper's figures are parameterised by.
    """

    def __init__(self, dram: CachePolicy | None, ssd: CachePolicy):
        super().__init__(ssd.capacity)
        self.dram = dram
        self.ssd = ssd
        self.l1_hits = 0
        self.l2_hits = 0

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        if self.dram is None:
            # Zero-size DRAM degenerates to the bare L2 policy.
            result = self.ssd.access(oid, size, admit=admit)
            if result.hit:
                self.l2_hits += 1
            return result
        # L1 (DRAM) — hits are free and invisible to the SSD counters.
        if oid in self.dram:
            self.dram.access(oid, size)
            self.l1_hits += 1
            # Keep L2 recency warm as well if resident there.  Some
            # policies change flash state on a hit — S3LRU promotion
            # overflow evicts *other* objects, a StagingCache L2 pays a
            # deferred write — so the L2's own hit result is the answer.
            if oid in self.ssd:
                return self.ssd.access(oid, size)
            return HIT

        if oid in self.ssd:
            self.l2_hits += 1
            result = self.ssd.access(oid, size)
            # Promote into DRAM (no SSD write involved).
            self.dram.access(oid, size)
            return result

        # Miss everywhere: DRAM always takes it; SSD only if admitted.
        self.dram.access(oid, size)
        if not admit or size > self.ssd.capacity:
            return MISS
        return self.ssd.access(oid, size, admit=True)

    @classmethod
    def with_lru_dram(
        cls, ssd: CachePolicy, *, dram_fraction: float = 0.05
    ) -> "HierarchicalCache":
        """Convenience: DRAM sized as a fraction of the SSD capacity.

        ``dram_fraction=0.0`` builds the zero-size-DRAM degenerate form
        (``dram=None``), a transparent shell over ``ssd``.
        """
        if not 0.0 <= dram_fraction < 1.0:
            raise ValueError("dram_fraction must be in [0, 1)")
        if dram_fraction == 0.0:
            return cls(None, ssd)
        return cls(LRUCache(max(1, int(ssd.capacity * dram_fraction))), ssd)

    @classmethod
    def for_capacity(
        cls, capacity_bytes: int, *, dram_fraction: float = 0.05
    ) -> "HierarchicalCache":
        """Registry-shape constructor: LRU tiers from one capacity."""
        return cls.with_lru_dram(LRUCache(capacity_bytes), dram_fraction=dram_fraction)

    def can_batch_hits(self) -> bool:
        """A hierarchy hit inserts only when its L2 hit does, so the default
        exact ``access_batch`` loop is safe whenever the L2 tier batches."""
        return self.ssd.can_batch_hits()

    # ------------------------------------------------------------ interface

    @property
    def used_bytes(self) -> int:
        """SSD-tier bytes (the figure-relevant resource)."""
        return self.ssd.used_bytes

    @property
    def dram_used_bytes(self) -> int:
        return 0 if self.dram is None else self.dram.used_bytes

    def __contains__(self, oid: int) -> bool:
        if self.dram is not None and oid in self.dram:
            return True
        return oid in self.ssd

    def __len__(self) -> int:
        """Resident entries summed over tiers (objects in both count twice —
        they genuinely occupy space in each)."""
        if self.dram is None:
            return len(self.ssd)
        return len(self.ssd) + len(self.dram)