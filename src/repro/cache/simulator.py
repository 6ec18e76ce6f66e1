"""Trace-driven cache simulation: the one request loop and its first driver.

This is the measurement loop behind Figures 2 and 6–10.
:func:`replay_range` replays a run of trace positions against one
:class:`~repro.cache.base.CachePolicy`, asking an optional
:class:`~repro.cache.base.AdmissionPolicy` on every miss whether the object
should be written to the SSD (the paper's Fig.-4 workflow), and accumulates
:class:`~repro.cache.base.CacheStats`; :func:`request_step` is the same
step for a single request.  They are the only place in the package where a
request meets a cache: :func:`simulate` drives the loop over a whole
:class:`~repro.trace.records.Trace`, and the scenario oracle
(:mod:`repro.scenario.oracle`), the cluster node
(:mod:`repro.cluster.node`) and the served node
(:mod:`repro.server.node`) drive it per phase, per routed request and per
micro-batch.

The loop is deliberately lean Python (locals bound outside it, one dict
lookup per access in the common case) — profiling puts it at ≈1–2
µs/access for LRU, which keeps the full benchmark grid tractable.  On
top of that, ``simulate(use_segments=True)`` (the default) routes
*guaranteed-hit* runs nominated by a
:class:`~repro.cache.segments.SegmentPlan` through the policy's vectorised
:meth:`~repro.cache.base.CachePolicy.access_batch`, skipping the loop
entirely where no admission decision or eviction can alter observable
state.  Segmenting is bit-exact — same hit/miss/write/eviction sequence as
the loop — and ``use_segments=False`` is the loop over the whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.cache.arc import ARCCache
from repro.cache.base import (
    AccessResult,
    AdmissionPolicy,
    CacheObserver,
    CachePolicy,
    CacheStats,
)
from repro.cache.belady import BeladyCache, compute_next_use
from repro.cache.fifo import FIFOCache
from repro.cache.gdsf import GDSFCache
from repro.cache.hierarchy import HierarchicalCache
from repro.cache.learned import LearnedCache, eviction_metadata
from repro.cache.lfu import LFUCache
from repro.cache.lirs import LIRSCache
from repro.cache.lru import LRUCache
from repro.cache.segments import SegmentPlan
from repro.cache.sieve import SieveCache
from repro.cache.slru import S3LRUCache
from repro.cache.staging import StagingCache
from repro.cache.twoq import TwoQCache
from repro.trace.records import Trace

__all__ = [
    "SimulationResult",
    "simulate",
    "replay_range",
    "request_step",
    "make_policy",
    "POLICY_REGISTRY",
    "MIN_SEGMENT_COVERAGE",
]

#: After this many failed batch attempts inside one candidate run (each one
#: separated by a single slow-path request), the rest of the run is handed
#: back to the loop — bounds the retry overhead on adversarial streams.
_MAX_STALLS = 2

#: Below this candidate-run coverage the segmented replay cannot pay for
#: its per-region bookkeeping (measured break-even is ~8–10 % on the paper
#: workload), so ``simulate`` silently stays on the per-request loop.
#: Passing an explicit ``segment_plan`` bypasses the gate — the caller has
#: opted in (as the parity tests do on purpose-built tiny traces).
MIN_SEGMENT_COVERAGE = 0.10

#: Online policies constructible from a capacity alone.
POLICY_REGISTRY: dict[str, Callable[[int], CachePolicy]] = {
    "lru": LRUCache,
    "fifo": FIFOCache,
    "lfu": LFUCache,
    "s3lru": S3LRUCache,
    "arc": ARCCache,
    "lirs": LIRSCache,
    "2q": TwoQCache,
    "gdsf": GDSFCache,
    "sieve": SieveCache,
    "learned": LearnedCache,
    # Two-level layouts (DRAM front + LRU flash tier): "hierarchy" admits
    # at miss time, "staging" makes objects earn the flash write via
    # Flashield-style re-access evidence while staged in DRAM.
    "hierarchy": HierarchicalCache.for_capacity,
    "staging": StagingCache.for_capacity,
}


def make_policy(name: str, capacity_bytes: int, trace: Trace | None = None) -> CachePolicy:
    """Build a policy by name; ``"belady"`` needs the trace for its oracle."""
    key = name.lower()
    if key == "belady":
        if trace is None:
            raise ValueError("belady requires the trace to precompute next uses")
        return BeladyCache(capacity_bytes, compute_next_use(trace.object_ids))
    if key == "learned" and trace is not None:
        # The learned head is better with the catalog's metadata columns;
        # capacity-only construction (the registry contract) still works
        # with pure stream features.
        return LearnedCache(capacity_bytes, metadata=eviction_metadata(trace))
    try:
        return POLICY_REGISTRY[key](capacity_bytes)
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            f"{sorted(POLICY_REGISTRY) + ['belady']}"
        ) from None


@dataclass
class SimulationResult:
    """Stats plus identifying metadata for one simulation run."""

    policy: str
    capacity_bytes: int
    stats: CacheStats
    admission: str = "always"

    # Convenience pass-throughs used by the figure benchmarks.
    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    @property
    def byte_hit_rate(self) -> float:
        return self.stats.byte_hit_rate

    @property
    def file_write_rate(self) -> float:
        return self.stats.file_write_rate

    @property
    def byte_write_rate(self) -> float:
        return self.stats.byte_write_rate


def _notify(observer: CacheObserver, oid: int, size: int, result) -> None:
    """Deliver one access's mutations: evictions first, then the insert.

    Eviction-before-insert matters for the device model — the freed pages
    must be TRIMmed (and reusable) before the incoming object claims space.
    """
    for victim in result.evicted:
        observer.on_evict(victim)
    if result.inserted:
        observer.on_insert(oid, size)


def _on_hit_callback(admission: AdmissionPolicy | None):
    """``admission.on_hit`` if the filter overrides the base no-op, else None.

    Every stock grid admission (AlwaysAdmit/Oracle/Classifier) keeps the
    no-op, so hits — looped or batched — cost them no call at all.
    """
    if admission is None or type(admission).on_hit is AdmissionPolicy.on_hit:
        return None
    return admission.on_hit


def request_step(
    policy: CachePolicy,
    admission: AdmissionPolicy | None,
    index: int,
    oid: int,
    size: int,
) -> tuple[AccessResult, bool]:
    """One Fig.-4 request → ``(result, denied)``.

    The single-request form of :func:`replay_range`'s loop body, for
    callers that route each request to a different stack (the cluster
    tier); anything replaying a contiguous run should use the range form.
    """
    if admission is None:
        return policy.access(oid, size), False
    result = policy.access_if_present(oid, size)
    if result is not None:
        admission.on_hit(index, oid, size)
        return result, False
    ok = admission.should_admit(index, oid, size)
    return policy.access(oid, size, ok), not ok


def replay_range(
    policy: CachePolicy,
    admission: AdmissionPolicy | None,
    observer: CacheObserver | None,
    stats: CacheStats,
    oids,
    sizes,
    lo: int,
    hi: int,
    *,
    warm_start: int = 0,
    outcomes: list | None = None,
) -> None:
    """The request loop: replay trace positions ``[lo, hi)``, in order.

    The repo's only copy of the paper's Fig.-4 step — lookup, on a miss
    ask ``admission`` (its verdict already includes the §4.4.2 overrule),
    then ``access(admit=)``; every replay path drives it (module
    docstring).  ``oids``/``sizes`` are whole-trace columns (NumPy arrays
    or lists) indexed by trace position; only ``[lo, hi)`` is materialised.
    Positions at or past ``warm_start`` count into ``stats``; ``observer``
    sees every mutation; ``admission`` is *not* reset — drivers own that.

    Counts are loop locals (:meth:`CacheStats.record`'s rule), folded into
    ``stats`` even when a call raises: the failing request counts only if
    its observer is what failed.

    ``outcomes``, when a driver passes a list, receives one
    ``(result, denied)`` pair per request, so whatever the driver derives
    per request happens after the loop and cannot feed back into it.
    """
    oid_l = oids[lo:hi]
    size_l = sizes[lo:hi]
    if hasattr(oid_l, "tolist"):  # plain ints iterate ~2× faster than NumPy scalars
        oid_l = oid_l.tolist()
        size_l = size_l.tolist()
    access = policy.access
    if admission is None:
        # No filter: ``access`` itself is a lookup that always resolves.
        lookup, should_admit, on_hit = access, None, None
    else:
        # access_if_present folds the membership probe into the hit-side
        # update (one hash lookup for LRU/FIFO instead of `oid in policy`
        # + `access(...)` re-hashing the key); None means "miss — ask".
        lookup, should_admit = policy.access_if_present, admission.should_admit
        on_hit = _on_hit_callback(admission)
    requests = hits = bytes_requested = bytes_hit = 0
    files_written = bytes_written = evictions = admissions_denied = 0
    try:
        for i, oid, size in zip(range(lo, hi), oid_l, size_l):
            result = lookup(oid, size)
            denied = False
            if result is None:
                ok = should_admit(i, oid, size)
                result = access(oid, size, ok)
                denied = not ok
            elif on_hit is not None:
                on_hit(i, oid, size)
            if i >= warm_start:
                # ``hit`` and ``inserted`` are independent (a staging
                # promote is both), and a hit may evict (S3LRU).
                requests += 1
                bytes_requested += size
                if result.hit:
                    hits += 1
                    bytes_hit += size
                if result.inserted:
                    files_written += 1
                    bytes_written += size
                if result.evicted:
                    evictions += len(result.evicted)
                admissions_denied += denied
            if observer is not None and (result.inserted or result.evicted):
                _notify(observer, oid, size, result)
            if outcomes is not None:
                outcomes.append((result, denied))
    finally:
        stats += CacheStats(
            requests, hits, bytes_requested, bytes_hit,
            files_written, bytes_written, evictions, admissions_denied,
        )


def simulate(
    trace: Trace,
    policy: CachePolicy,
    *,
    admission: AdmissionPolicy | None = None,
    observer: CacheObserver | None = None,
    warmup_fraction: float = 0.0,
    policy_name: str | None = None,
    use_segments: bool = True,
    segment_plan: SegmentPlan | None = None,
) -> SimulationResult:
    """Replay ``trace`` through ``policy`` and return the measured stats.

    ``observer``, when given, receives every insertion/eviction — the hook
    used to drive the SSD device model (:mod:`repro.ssd.cache_device`).

    ``warmup_fraction`` excludes the first fraction of requests from the
    *statistics* (the cache still processes them), removing cold-start
    compulsory misses from the measurement — standard practice when
    comparing steady-state behaviour.  The paper measures the whole trace,
    so the default is 0.

    ``use_segments`` (default on) batches candidate guaranteed-hit runs
    through :meth:`~repro.cache.base.CachePolicy.access_batch` for policies
    advertising :meth:`~repro.cache.base.CachePolicy.can_batch_hits`; the
    result is bit-identical to the loop, just faster on hit-dominated
    replays.  Segmenting engages only when the plan's candidate runs cover
    at least :data:`MIN_SEGMENT_COVERAGE` of the trace (below that the
    bookkeeping wouldn't pay for itself).  Pass ``use_segments=False`` for
    the plain :func:`replay_range` over the whole trace (useful for parity
    checks and micro-benchmarks), or ``segment_plan`` to reuse a prebuilt
    :class:`~repro.cache.segments.SegmentPlan` — an explicit plan also
    bypasses the coverage gate.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    stats = CacheStats()
    if admission is not None:
        admission.reset()

    oid_arr = trace.object_ids
    size_arr = trace.catalog["size"][oid_arr]
    n = trace.n_accesses
    warm_start = int(warmup_fraction * n)
    slow = partial(
        replay_range, policy, admission, observer, stats, oid_arr, size_arr,
        warm_start=warm_start,
    )

    batches = None
    if use_segments and policy.can_batch_hits():
        plan = segment_plan if segment_plan is not None else SegmentPlan.for_trace(trace)
        if (
            segment_plan is not None
            or plan.coverage(policy.capacity) >= MIN_SEGMENT_COVERAGE
        ):
            batches = plan.batches(policy.capacity)

    pos = 0
    if batches:
        # Segment-batching replay: the loop between candidate runs, one
        # access_batch inside them; trace columns are materialised only for
        # the regions the loop actually walks (a full-trace tolist is itself
        # ~10 % of a hit-dominated replay).
        pos = _replay_batches(
            policy, admission, observer, stats, oid_arr, size_arr,
            plan.prefix_bytes, warm_start, batches, slow,
        )
    if pos < n:
        slow(pos, n)

    return SimulationResult(
        policy=policy_name or type(policy).__name__,
        capacity_bytes=policy.capacity,
        stats=stats,
        admission=type(admission).__name__ if admission is not None else "always",
    )


def _replay_batches(
    policy: CachePolicy,
    admission: AdmissionPolicy | None,
    observer: CacheObserver | None,
    stats: CacheStats,
    oid_arr,
    size_arr,
    prefix,
    warm_start: int,
    batches,
    slow,
) -> int:
    """Batch inside the candidate runs, ``slow(lo, hi)`` between them.

    Returns the position after the last run (the caller replays the tail).
    Semantics contract (checked by the parity suite): the hit/miss/write/
    eviction sequence, the admission callback sequence, and the resulting
    :class:`CacheStats` are bit-identical to ``slow(0, n)``.
    """
    access_batch = policy.access_batch
    on_hit = _on_hit_callback(admission)

    pos = 0
    for s, e, distinct in batches:
        # Split runs at the warmup boundary so every batch is entirely
        # counted or entirely warmup — keeping eviction attribution
        # identical to the loop, which credits an eviction to the request
        # that triggered it.  The precomputed dedup covers the whole run,
        # so the (rare) straddling halves use the exact loop instead.
        if s < warm_start < e:
            spans = ((s, warm_start, None), (warm_start, e, None))
        else:
            spans = ((s, e, distinct),)
        for s2, e2, d2 in spans:
            if pos < s2:
                slow(pos, s2)
                pos = s2
            stalls = 0
            while pos < e2:
                consumed, evicted = access_batch(
                    oid_arr[pos:e2],
                    size_arr[pos:e2],
                    d2 if pos == s2 else None,
                )
                if consumed:
                    end = pos + consumed
                    if pos >= warm_start:
                        nbytes = int(prefix[end] - prefix[pos])
                        stats.requests += consumed
                        stats.hits += consumed
                        stats.bytes_requested += nbytes
                        stats.bytes_hit += nbytes
                        stats.evictions += len(evicted)
                    if on_hit is not None:
                        oid_l = oid_arr[pos:end].tolist()
                        size_l = size_arr[pos:end].tolist()
                        for k, oid in enumerate(oid_l):
                            on_hit(pos + k, oid, size_l[k])
                    if observer is not None:
                        for victim in evicted:
                            observer.on_evict(victim)
                    pos = end
                if pos >= e2:
                    break
                # The next request is not a batchable hit (miss, denied-
                # then-re-accessed object, or a mid-run eviction): run it
                # through the exact path, then retry the remainder a
                # bounded number of times before conceding the run.
                stalls += 1
                if stalls > _MAX_STALLS:
                    slow(pos, e2)
                    pos = e2
                    break
                slow(pos, pos + 1)
                pos += 1
    return pos
