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

__all__ = ["CounterFlashiness", "FlashinessPredicate", "StagingCache"]


class FlashinessPredicate:
    """Decides when a staged object has earned its SSD write.

    ``should_promote`` is consulted with the re-access evidence gathered so
    far (``dram_hits`` is 0 at miss time); ``on_request`` is called exactly
    once per request *after* any ``should_promote`` for the same position,
    so learned implementations can consume features before observing.
    """

    def should_promote(self, index: int, oid: int, size: int, dram_hits: int) -> bool:
        raise NotImplementedError

    def on_request(self, index: int, oid: int, size: int) -> None:
        """Optional hook: observe the request (in trace order)."""

    def reset(self) -> None:
        """Optional hook: clear per-run state before a simulation."""


class CounterFlashiness(FlashinessPredicate):
    """Promote after ``threshold`` re-accesses while staged in DRAM.

    ``threshold=0`` is the always-admit degenerate case (write at miss
    time); ``threshold=1`` means an object must be seen twice in total
    before it touches flash.
    """

    def __init__(self, threshold: int = 1):
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.threshold = int(threshold)

    def should_promote(self, index: int, oid: int, size: int, dram_hits: int) -> bool:
        return dram_hits >= self.threshold

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CounterFlashiness(threshold={self.threshold})"


class StagingCache(CachePolicy):
    """DRAM staging tier + SSD tier with a flashiness promotion bar.

    Parameters
    ----------
    dram:
        The staging policy (typically a small LRU), or ``None`` for a
        zero-size staging area (transparent shell over ``ssd``).
    ssd:
        The L2 policy whose inserts are the flash writes being avoided.
    flashiness:
        The promotion bar; defaults to ``CounterFlashiness(1)``.
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
        flashiness: FlashinessPredicate | None = None,
        *,
        redemption_threshold: int | None = None,
    ):
        super().__init__(ssd.capacity)
        if redemption_threshold is not None and redemption_threshold < 1:
            raise ValueError("redemption_threshold must be >= 1")
        self.dram = dram
        self.ssd = ssd
        self.flashiness = (
            flashiness if flashiness is not None else CounterFlashiness(1)
        )
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
        self._clock = 0

    @classmethod
    def for_capacity(
        cls,
        capacity_bytes: int,
        *,
        dram_fraction: float = 0.05,
        flashiness: FlashinessPredicate | None = None,
        redemption_threshold: int | None = None,
    ) -> "StagingCache":
        """LRU tiers sized like ``HierarchicalCache.with_lru_dram``."""
        if not 0.0 <= dram_fraction < 1.0:
            raise ValueError("dram_fraction must be in [0, 1)")
        ssd = LRUCache(capacity_bytes)
        if dram_fraction == 0.0:
            return cls(
                None, ssd, flashiness,
                redemption_threshold=redemption_threshold,
            )
        dram = LRUCache(max(1, int(capacity_bytes * dram_fraction)))
        return cls(
            dram, ssd, flashiness, redemption_threshold=redemption_threshold
        )

    # --------------------------------------------------------------- access

    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        self._validate_request(size)
        index = self._clock
        self._clock = index + 1
        flashiness = self.flashiness
        dram = self.dram
        if dram is None:
            # Zero-size staging area: transparent shell over the L2 policy.
            result = self.ssd.access(oid, size, admit=admit)
            if result.hit:
                self.l2_hits += 1
            elif result.inserted:
                self.direct_admits += 1
            flashiness.on_request(index, oid, size)
            return result

        if oid in dram:
            dram.access(oid, size)
            self.l1_hits += 1
            if oid in self.ssd:
                result = self.ssd.access(oid, size)
                flashiness.on_request(index, oid, size)
                return AccessResult(hit=True, evicted=result.evicted) if result.evicted else HIT
            entry = self._staged.get(oid)
            if entry is None:
                # DRAM-resident but neither on the SSD nor staged: its SSD
                # copy was evicted from under it.  It re-enters staging on
                # its next miss, never from the hit path (keeps bar-zero
                # bit-identical to HierarchicalCache).
                flashiness.on_request(index, oid, size)
                return HIT
            entry[0] += 1
            promoted = False
            redeeming = False
            evicted: tuple[int, ...] = ()
            if entry[1]:
                promote = flashiness.should_promote(index, oid, size, entry[0])
            else:
                # Denied at miss time — but observed re-accesses contradict
                # a one-time prediction, so a configured redemption bar can
                # still earn the write (never for oversized objects).
                redeeming = (
                    self.redemption_threshold is not None
                    and entry[0] >= self.redemption_threshold
                    and size <= self.ssd.capacity
                )
                promote = redeeming
            if promote:
                result = self.ssd.access(oid, size, admit=True)
                if result.inserted:
                    del self._staged[oid]
                    self.promotions += 1
                    if redeeming:
                        self.redemptions += 1
                    promoted = True
                    evicted = result.evicted
            flashiness.on_request(index, oid, size)
            return AccessResult(hit=True, inserted=True, evicted=evicted) if promoted else HIT

        if oid in self.ssd:
            self.l2_hits += 1
            result = self.ssd.access(oid, size)
            dram_result = dram.access(oid, size)
            self._forget(dram_result.evicted)
            flashiness.on_request(index, oid, size)
            return AccessResult(hit=True, evicted=result.evicted) if result.evicted else HIT

        # Miss everywhere: DRAM always takes it; the SSD write waits for
        # the flashiness bar unless the bar is already crossed at zero.
        dram_result = dram.access(oid, size)
        self._forget(dram_result.evicted)
        eligible = admit and size <= self.ssd.capacity
        if eligible and flashiness.should_promote(index, oid, size, 0):
            result = self.ssd.access(oid, size, admit=True)
            if result.inserted:
                self.direct_admits += 1
            flashiness.on_request(index, oid, size)
            return result
        if oid in dram:
            # Objects too large for the staging area cannot accrue
            # evidence and are simply never admitted (Flashield: no
            # staging space means no flashiness estimate).
            self._staged[oid] = [0, eligible]
        flashiness.on_request(index, oid, size)
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

    @property
    def dram_used_bytes(self) -> int:
        return 0 if self.dram is None else self.dram.used_bytes

    @property
    def staged_count(self) -> int:
        """Objects currently accruing evidence in DRAM."""
        return len(self._staged)

    def staging_stats(self) -> dict:
        return {
            "promotions": self.promotions,
            "redemptions": self.redemptions,
            "direct_admits": self.direct_admits,
            "staged_evicted": self.staged_evicted,
            "staged_resident": len(self._staged),
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
        }

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
