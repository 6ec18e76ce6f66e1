"""Cache policy interface, per-access outcome, and statistics counters.

Design
------
A policy's single entry point is :meth:`CachePolicy.access`: it processes
one request *including* its metadata side effects (ARC ghost hits, the LIRS
stack) and — when the request misses and the caller admits it — performs
insertion and any evictions.  This single-call shape matters because for
ARC/LIRS a miss is itself a state transition; splitting lookup and insert
across two calls would let state drift in between.

The simulator (not the policy) owns the :class:`CacheStats` counters so that
every policy is measured identically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "AccessResult",
    "HIT",
    "MISS",
    "CachePolicy",
    "CacheStats",
    "AdmissionPolicy",
    "CacheObserver",
]


class AccessResult(NamedTuple):
    """Outcome of one request (a plain hit / miss is :data:`HIT` / :data:`MISS`).

    ``hit``       — object was resident.
    ``inserted``  — object was written into the cache (an SSD write).
    ``evicted``   — object ids displaced by this insertion.
    ``churn``     — the insertion re-admitted an object a learned eviction
    head had itself evicted (:func:`repro.obs.ledger.write_cause`).
    """

    hit: bool
    inserted: bool = False
    evicted: tuple[int, ...] = ()
    churn: bool = False


HIT = AccessResult(True)
MISS = AccessResult(False)


class CachePolicy(ABC):
    """Size-aware replacement policy over integer object ids."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity = int(capacity_bytes)

    @abstractmethod
    def access(self, oid: int, size: int, admit: bool = True) -> AccessResult:
        """Process one request for object ``oid`` of ``size`` bytes.

        On a hit, recency/frequency state is updated and :data:`HIT`
        returned.  On a miss with ``admit=True`` the object is inserted
        (evicting residents as needed) unless it is larger than the whole
        cache; with ``admit=False`` only internal metadata (ghosts/history)
        is updated.
        """

    def access_if_present(self, oid: int, size: int) -> "AccessResult | None":
        """Process the request *iff* ``oid`` is resident, else ``None``.

        The simulator's hot loop calls this on every request; a ``None``
        return means "miss — ask admission, then call :meth:`access` with
        the verdict".  The default implementation is the classic
        membership-check-then-access pair (two hash lookups); policies
        with a cheap resident-hit path (LRU, FIFO) override it with a
        single-lookup version.  Implementations must not perform any
        miss-side state transition — that still belongs to the subsequent
        :meth:`access` call.
        """
        if oid in self:
            return self.access(oid, size)
        return None

    def can_batch_hits(self) -> bool:
        """Whether :meth:`access_batch` is worth calling on hit runs.

        ``True`` means the policy's hit-side transition is cheap enough —
        or vectorisable enough — that the simulator should route candidate
        guaranteed-hit runs (:class:`repro.cache.segments.SegmentPlan`)
        through :meth:`access_batch` instead of the per-request loop.  This
        is purely a *performance* capability: correctness never depends on
        it, because :meth:`access_batch` stops at the first non-hit.  The
        conservative default is ``False``; policies whose hits cannot evict
        (LRU, FIFO, SIEVE) or are loop-equivalent (S3LRU) opt in.
        """
        return False

    def access_batch(
        self, oids, sizes, distinct=None
    ) -> "tuple[int, tuple[int, ...]]":
        """Process a consecutive run of requests *expected* to all hit.

        ``oids``/``sizes`` are equal-length sequences (the simulator passes
        NumPy array slices; plain lists are accepted too).  Requests are
        processed in order **while they hit**; processing stops *before*
        the first non-resident request, so its miss-side transition
        (admission verdict, insertion, ghosts) is left entirely to the
        caller's per-request path.  Returns ``(consumed, evicted)`` where
        ``consumed`` is how many leading requests were processed as hits
        and ``evicted`` concatenates, in order, any objects displaced by
        those hits (possible for policies whose hit transition can
        demote/evict, e.g. S3LRU's segment-quota rounding).

        ``distinct``, when given, is the precomputed deduplication of the
        run — each distinct oid exactly once, ordered by **last occurrence**
        (:meth:`repro.cache.segments.SegmentPlan.batches` builds it
        vectorised).  A run of hits can only permute recency, and only the
        last occurrence of each object decides its final position, so
        ``distinct`` is everything an order-insensitive (FIFO, SIEVE) or
        promotion-only (LRU) policy needs — it never has to touch the full
        run.  The hint is advisory: every occurrence in the run shares its
        distinct set, so a policy may use it only after confirming all of
        ``distinct`` is resident, and must otherwise fall back to the exact
        early-stopping loop.

        This default loops :meth:`access_if_present` — semantics-preserving
        for every policy.  LRU/FIFO/SIEVE override it with hint-driven
        versions.
        """
        if hasattr(oids, "tolist"):  # NumPy slices: plain ints iterate faster
            oids = oids.tolist()
            sizes = sizes.tolist()
        consumed = 0
        evicted: list[int] = []
        access_if_present = self.access_if_present
        for oid, size in zip(oids, sizes):
            result = access_if_present(oid, size)
            if result is None:
                break
            consumed += 1
            if result.evicted:
                evicted.extend(result.evicted)
        return consumed, tuple(evicted)

    @property
    @abstractmethod
    def used_bytes(self) -> int:
        """Bytes currently resident; must never exceed ``capacity``."""

    @abstractmethod
    def __contains__(self, oid: int) -> bool:
        """True when ``oid`` is resident (metadata-only entries excluded)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of resident objects."""

    def _validate_request(self, size: int) -> None:
        if size <= 0:
            raise ValueError("object size must be positive")


class CacheObserver(ABC):
    """Receives the cache's mutation stream during a simulation.

    Used to drive downstream device models — e.g.
    :class:`repro.ssd.cache_device.CacheSSD` turns inserts into flash
    programs and evictions into TRIMs.
    """

    @abstractmethod
    def on_insert(self, oid: int, size: int) -> None:
        """Object written into the cache (an SSD write)."""

    @abstractmethod
    def on_evict(self, oid: int) -> None:
        """Object displaced from the cache."""


class AdmissionPolicy(ABC):
    """Decides whether a *missed* object should be written into the cache.

    This is the hook the paper's classification system (Fig. 4) plugs into:
    on every miss the simulator asks :meth:`should_admit`; implementations
    range from the trivial always-admit to the classifier + history-table
    system in :mod:`repro.core.admission`.
    """

    @abstractmethod
    def should_admit(self, index: int, oid: int, size: int) -> bool:
        """Admission verdict for the miss at trace position ``index``."""

    def on_hit(self, index: int, oid: int, size: int) -> None:
        """Optional hook: called on every cache hit."""

    def reset(self) -> None:
        """Optional hook: clear per-run state before a simulation."""


@dataclass
class CacheStats:
    """Counters accumulated by the simulator (files and bytes).

    The paper's reported ratios map as:

    * file hit rate   = ``hits / requests``                      (Fig. 6)
    * byte hit rate   = ``bytes_hit / bytes_requested``          (Fig. 7)
    * file write rate = ``files_written / requests``             (Fig. 8)
    * byte write rate = ``bytes_written / bytes_requested``      (Fig. 9)
    """

    requests: int = 0
    hits: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0
    files_written: int = 0
    bytes_written: int = 0
    evictions: int = 0
    admissions_denied: int = 0

    def record(self, size: int, result: AccessResult, denied: bool) -> None:
        """Count one request (``replay_range`` counts the same in locals)."""
        self.requests += 1
        self.bytes_requested += size
        if result.hit:
            self.hits += 1
            self.bytes_hit += size
        if result.inserted:
            self.files_written += 1
            self.bytes_written += size
        self.evictions += len(result.evicted)
        if denied:
            self.admissions_denied += 1

    def __iadd__(self, other: "CacheStats") -> "CacheStats":
        """Fold another counter set in (a phase, a micro-batch, a node)."""
        self.requests += other.requests
        self.hits += other.hits
        self.bytes_requested += other.bytes_requested
        self.bytes_hit += other.bytes_hit
        self.files_written += other.files_written
        self.bytes_written += other.bytes_written
        self.evictions += other.evictions
        self.admissions_denied += other.admissions_denied
        return self

    # ------------------------------------------------------------- ratios

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_rate(self) -> float:
        return self.bytes_hit / self.bytes_requested if self.bytes_requested else 0.0

    @property
    def file_write_rate(self) -> float:
        return self.files_written / self.requests if self.requests else 0.0

    @property
    def byte_write_rate(self) -> float:
        return (
            self.bytes_written / self.bytes_requested if self.bytes_requested else 0.0
        )
