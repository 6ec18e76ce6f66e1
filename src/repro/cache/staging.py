"""Flashield-style DRAM staging in front of the SSD tier.

The paper's admission classifier decides *at miss time* whether an object
deserves a flash write.  Flashield (Eisenman et al., NSDI'19) avoids the
same writes by a different route: every object enters DRAM first and must
*prove* "flashiness" — re-accesses while staged — before it earns the SSD
write.  :class:`StagingCache` implements that semantics on top of the
two-level layout of :class:`~repro.cache.hierarchy.HierarchicalCache`, so
the classifier, the flashiness bar, and their composition can be compared
head-to-head in one ``simulate()`` sweep:

* **classifier only** — ``HierarchicalCache`` + ``ClassifierAdmission``;
* **flashiness only** — ``StagingCache`` with always-admit;
* **composed** — ``StagingCache`` + ``ClassifierAdmission``: the verdict
  taken at miss time marks the staged object (in)eligible, and the
  flashiness bar must *also* be crossed before the write happens.

Semantics
---------
* Miss: the object enters DRAM (free) and — unless the flashiness bar is
  zero — is only *staged*: no SSD write yet.  The caller's ``admit``
  verdict is remembered as the staged object's SSD eligibility.
* DRAM hit on a staged object: one unit of re-access evidence.  When the
  evidence crosses the bar and the object is eligible, it is **promoted**:
  written to the SSD tier and reported as
  ``AccessResult(hit=True, inserted=True, ...)`` — the only situation in
  this codebase where a hit carries an insert.  :class:`CacheStats.record`
  then counts both the hit and the flash write.
* Eviction from DRAM discards the staged evidence (Flashield's semantics:
  the object must re-earn its write from scratch on its next miss).
* An SSD hit promotes into DRAM exactly as ``HierarchicalCache`` does; an
  SSD-resident object never re-enters staging while it stays in DRAM.

Two degenerate configurations anchor the differential tests:

* ``dram=None`` (zero-size staging area) — nothing can ever accrue
  evidence, so the wrapper is a transparent shell over the L2 policy.
* flashiness bar 0 — every admitted miss is written immediately, which is
  bit-identical to ``HierarchicalCache`` (always-admit through the bar).

``can_batch_hits()`` stays ``False`` **by contract**: a staged hit can
insert, and the segmented batch path (``access_batch``) can only surface
``(consumed, evicted)`` — promotions would be invisible to the stats and
the device observer.
"""

from __future__ import annotations

from repro.cache.base import HIT, MISS, AccessResult, CachePolicy
from repro.cache.lru import LRUCache

__all__ = ["StagingCache"]


class StagingCache(CachePolicy):
    """DRAM staging tier + SSD tier with a flashiness promotion bar.

    Parameters
    ----------
    dram:
        The staging policy (typically a small LRU), or ``None`` for a
        zero-size staging area (transparent shell over ``ssd``).
    ssd:
        The L2 policy whose inserts are the flash writes being avoided.
    threshold:
        The promotion bar: DRAM re-accesses a staged object needs before
        its SSD write.  ``0`` writes every admitted miss at once (the
        always-admit degenerate case); ``1`` (default) means an object
        must be seen twice in total before it touches flash.
    redemption_threshold:
        Optional evidence-overrides-prediction escape hatch for composing
        with an admission classifier: a staged object the caller *denied*
        at miss time is normally never written, but with this set it is
        still promoted once it shows this many DRAM re-accesses — observed
        reuse directly contradicts a one-time prediction, and the higher
        bar prices in the classifier's scepticism.  ``None`` (default)
        keeps denials absolute.

    ``capacity``/``used_bytes`` report the SSD tier, mirroring
    :class:`~repro.cache.hierarchy.HierarchicalCache`.
    """

    def __init__(
        self,
        dram: CachePolicy | None,
        ssd: CachePolicy,
        threshold: int = 1,
        *,
        redemption_threshold: int | None = None,
    ):
        super().__init__(ssd.capacity)
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        if redemption_threshold is not None and redemption_threshold < 1:
            raise ValueError("redemption_threshold must be >= 1")
        self.dram = dram
        self.ssd = ssd
        self.threshold = int(threshold)
        self.redemption_threshold = redemption_threshold
        self.l1_hits = 0
        self.l2_hits = 0
        # Promotions: staged objects whose bar was crossed on a DRAM hit.
        # Direct admits: bar-zero inserts performed at miss time.
        self.promotions = 0
        self.redemptions = 0
        self.direct_admits = 0
        self.staged_evicted = 0
        # oid -> [dram re-accesses while staged, SSD-eligible?].  Entries
        # exist only for DRAM-resident objects that are not on the SSD.
        self._staged: dict[int, list] = {}

    @classmethod
    def for_capacity(
        cls,
        capacity_bytes: int,
        *,
        dram_fraction: float = 0.05,
        threshold: int = 1,
        redemption_threshold: int | None = None,
    ) -> "StagingCache":
        """LRU tiers sized like ``HierarchicalCache.with_lru_dram``."""
        if not 0.0 <= dram_fraction < 1.0:
            raise ValueError("dram_fraction must be in [0, 1)")
        ssd = LRUCache(capacity_bytes)
        dram = (
            None if dram_fraction == 0.0
            else LRUCache(max(1, int(capacity_bytes * dram_fraction)))
        )
        return cls(
            dram, ssd, threshold, redemption_threshold=redemption_threshold
        )

    # --------------------------------------------------------------- access

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        dram = self.dram
        if dram is None:
            # Zero-size staging area: transparent shell over the L2 policy.
            result = self.ssd.access(oid, size, admit=admit)
            if result.hit:
                self.l2_hits += 1
            elif result.inserted:
                self.direct_admits += 1
            return result

        if oid in dram:
            dram.access(oid, size)
            self.l1_hits += 1
            if oid in self.ssd:
                result = self.ssd.access(oid, size)
                return AccessResult(hit=True, evicted=result.evicted) if result.evicted else HIT
            entry = self._staged.get(oid)
            if entry is None:
                # DRAM-resident but neither on the SSD nor staged: its SSD
                # copy was evicted from under it.  It re-enters staging on
                # its next miss, never from the hit path (keeps bar-zero
                # bit-identical to HierarchicalCache).
                return HIT
            entry[0] += 1
            if entry[1]:
                redeeming = False
                promote = entry[0] >= self.threshold
            else:
                # Denied at miss time — but observed re-accesses contradict
                # a one-time prediction, so a configured redemption bar can
                # still earn the write (never for oversized objects).
                redeeming = promote = (
                    self.redemption_threshold is not None
                    and entry[0] >= self.redemption_threshold
                    and size <= self.ssd.capacity
                )
            if promote:
                result = self.ssd.access(oid, size, admit=True)
                if result.inserted:
                    del self._staged[oid]
                    self.promotions += 1
                    if redeeming:
                        self.redemptions += 1
                    return AccessResult(
                        hit=True, inserted=True, evicted=result.evicted
                    )
            return HIT

        if oid in self.ssd:
            self.l2_hits += 1
            result = self.ssd.access(oid, size)
            dram_result = dram.access(oid, size)
            self._forget(dram_result.evicted)
            return AccessResult(hit=True, evicted=result.evicted) if result.evicted else HIT

        # Miss everywhere: DRAM always takes it; the SSD write waits for
        # the flashiness bar unless the bar is zero.
        dram_result = dram.access(oid, size)
        self._forget(dram_result.evicted)
        eligible = admit and size <= self.ssd.capacity
        if eligible and self.threshold == 0:
            result = self.ssd.access(oid, size, admit=True)
            if result.inserted:
                self.direct_admits += 1
            return result
        if oid in dram:
            # Objects too large for the staging area cannot accrue
            # evidence and are simply never admitted (Flashield: no
            # staging space means no flashiness estimate).
            self._staged[oid] = [0, eligible]
        return MISS

    def _forget(self, evicted) -> None:
        """Drop staged evidence for objects evicted from DRAM."""
        if not evicted:
            return
        staged = self._staged
        for victim in evicted:
            if staged.pop(victim, None) is not None:
                self.staged_evicted += 1

    def can_batch_hits(self) -> bool:
        """Never batch: staged hits can insert, and ``access_batch`` has no
        channel to report inserts to the stats/observer."""
        return False

    # ------------------------------------------------------------ interface

    @property
    def used_bytes(self) -> int:
        """SSD-tier bytes (the figure-relevant resource)."""
        return self.ssd.used_bytes

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
