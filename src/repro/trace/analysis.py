"""Workload analysis: the toolkit behind a §2-style trace study.

Functions here answer the questions the paper's motivation section asks of
its production trace:

* :func:`popularity_zipf_fit` — is request popularity Zipf-like (the paper
  cites Breslau et al. for this), and with what exponent?
* :func:`stack_distance_profile` — the LRU hit-rate-vs-capacity curve in
  one pass (unit-size approximation), i.e. Fig. 2 without simulation;
* :func:`reuse_interval_stats` — how quickly re-accesses arrive (what makes
  small caches work);
* :func:`one_time_share_by_hour` — the §4.4.3 diurnal cycle of *p*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.belady import compute_next_use
from repro.trace.records import Trace

__all__ = [
    "COLD_MISS",
    "ZipfFit",
    "popularity_zipf_fit",
    "stack_distances",
    "stack_distances_from_next_use",
    "stack_distance_profile",
    "reuse_interval_stats",
    "one_time_share_by_hour",
]

#: Sentinel distance for an object's first access (cold miss): no LRU cache,
#: however large, can serve it.
COLD_MISS = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ZipfFit:
    """Least-squares fit of log(count) vs log(rank)."""

    exponent: float        # Zipf's alpha (positive = heavy head)
    r_squared: float
    n_objects: int
    top_1pct_share: float  # request share of the most popular 1%

    @property
    def is_zipf_like(self) -> bool:
        """Rule of thumb: good log-log linearity and a real exponent."""
        return self.r_squared > 0.8 and self.exponent > 0.3


def popularity_zipf_fit(trace: Trace, *, min_rank: int = 1) -> ZipfFit:
    """Fit ``count ∝ rank^(−alpha)`` over the popularity distribution.

    ``min_rank`` skips the first ranks, where real traces routinely deviate
    from the power law (the paper's cited web-caching work does the same).
    """
    counts = trace.access_counts()
    counts = np.sort(counts[counts > 0])[::-1]
    if counts.shape[0] < min_rank + 10:
        raise ValueError("too few objects for a meaningful fit")
    ranks = np.arange(1, counts.shape[0] + 1)
    sel = slice(min_rank - 1, None)
    x = np.log(ranks[sel])
    y = np.log(counts[sel].astype(np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    top = max(1, counts.shape[0] // 100)
    return ZipfFit(
        exponent=float(-slope),
        r_squared=r2,
        n_objects=int(counts.shape[0]),
        top_1pct_share=float(counts[:top].sum() / counts.sum()),
    )


def stack_distances(
    object_ids: np.ndarray, *, weights: np.ndarray | None = None
) -> np.ndarray:
    """Per-access Mattson stack distance, exact, from array passes.

    The stack distance of access *i* is the total ``weight`` of *distinct*
    objects touched strictly between this access and the previous access of
    the same object (each distinct object counted once, at its most recent
    occurrence).  First accesses get :data:`COLD_MISS`.

    With ``weights=None`` every object weighs 1 — the classic unit-size
    distance behind :func:`stack_distance_profile`.  With per-access byte
    weights (``trace.sizes``) the result is the *byte-weighted* distance
    used by :class:`repro.cache.segments.SegmentPlan` to prove hits: an
    access re-touching an object whose byte distance plus own size fits the
    capacity is a guaranteed LRU hit when every miss is admitted.

    ``object_ids`` must be a 1-D integer array and ``weights`` an aligned
    integer (or bool) array; anything else raises ``ValueError`` rather
    than being truncated.  Weights are summed as given in int64 — negative
    ones included — so their running total must fit 63 bits.  See
    :func:`stack_distances_from_next_use` for how the pass works.
    """
    oids = np.asarray(object_ids)
    if oids.ndim != 1:
        raise ValueError("object_ids must be a 1-D array")
    if oids.size and oids.dtype.kind not in "iub":
        raise ValueError("object_ids must be integers")
    if weights is None:
        weights = np.ones(oids.shape[0], dtype=np.int64)
    else:
        weights = np.asarray(weights)
        if weights.shape != oids.shape:
            raise ValueError("weights must align with object_ids")
        if weights.size and weights.dtype.kind not in "iub":
            raise ValueError("weights must have an integer or bool dtype")
        weights = weights.astype(np.int64, copy=False)
    return stack_distances_from_next_use(compute_next_use(oids), weights)


def stack_distances_from_next_use(
    next_use: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """:func:`stack_distances` from a prebuilt occurrence index.

    ``next_use[i]`` is the next access of the same object
    (:func:`repro.cache.belady.compute_next_use`; any value ``>= n`` means
    "none") and ``weights`` the aligned int64 weights.  A caller that keeps
    the index — :class:`~repro.cache.segments.SegmentPlan` does — pays for
    one grouping sort per trace instead of two.

    With ``p`` the previous access of the object touched at ``i`` and ``W``
    the exclusive prefix sum of the weights::

        d_i = (W[i] - W[p + 1]) - sum(w[q] for reuse pairs (q, k) with p < q, k < i)

    — every byte touched in between, minus each occurrence ``q`` that was
    itself re-touched (at ``k``) before ``i`` and is therefore not the most
    recent occurrence of its object.  Over the reuse accesses in trace
    order the subtracted term asks, of every earlier reuse, "was your
    previous access later than mine?": a weighted count of earlier elements
    with a larger value, which :func:`_subtract_earlier_larger` computes
    exactly with integer array passes.
    """
    n = next_use.shape[0]
    # Reuse pairs (first[r], second[r]), ascending in ``first``: r is the
    # rank of the pair's earlier access among all earlier accesses.
    first = np.flatnonzero(next_use < n)
    second = next_use[first]
    m = first.shape[0]
    # Bytes touched strictly inside each pair, W[second] - W[first + 1].
    prefix = np.empty(n + 1, dtype=np.int64)
    prefix[0] = 0
    np.cumsum(weights, out=prefix[1:])
    between = prefix[second]
    between -= prefix[1:][first]
    del prefix
    # The pairs' ranks in trace order of the reuse access: a cumsum over a
    # membership mask numbers the reuse accesses without sorting them.
    index_t = np.int32 if m < 2**31 else np.int64
    is_reuse = np.zeros(n, dtype=bool)
    is_reuse[second] = True
    seq = np.cumsum(is_reuse, dtype=index_t)[second]
    seq -= 1
    del is_reuse
    order = np.empty(m, dtype=index_t)
    order[seq] = np.arange(m, dtype=index_t)
    del seq
    retouched = weights[first]
    del first
    _subtract_earlier_larger(order, retouched, between)
    distances = np.full(n, COLD_MISS, dtype=np.int64)
    distances[second] = between
    return distances


#: Elements per slab of the level loop below — a power of two.  Each level
#: is processed slab by slab, so the pass's footprint is its four
#: full-length arrays plus cache-sized temporaries, not a fresh set of
#: full-length temporaries per level (which is what moves a replay's peak
#: RSS).  Tests shrink it to force the carries.
_SLAB = 1 << 15


def _subtract_earlier_larger(
    order: np.ndarray, weight: np.ndarray, out: np.ndarray
) -> None:
    """Subtract weighted "earlier and larger" sums over a permutation.

    ``order`` holds the values ``0 .. m-1`` in sequence order and
    ``weight[v]`` is the int64 weight of value ``v``.  From every ``out[v]``
    the total weight of the values ``u > v`` that precede ``v`` in the
    sequence is subtracted, exactly.  ``order`` is consumed as a partition
    buffer.

    MSD radix partition, one level per bit of the values, most significant
    first.  Entering the level of bit ``b`` the array is in groups of
    ``2 << b`` slots: group ``g`` holds the values that share ``g`` as
    their higher bits, still in sequence order (only the last group can be
    short, since the values are exactly ``0 .. m-1``).  Two values of one
    group that differ in bit ``b`` are ordered by it, so every value with
    the bit clear collects the weight of the bit-set values before it in
    its group — an inclusive cumsum of ``weight * bit`` along the group —
    and every pair ``u > v`` is counted once, at the level of its highest
    differing bit.  A stable clear-then-set partition of each group forms
    the next level's groups; after bit 0 the array is sorted.
    """
    m = order.shape[0]
    spare = np.empty_like(order)
    for b in range((m - 1).bit_length() - 1, -1, -1):
        half = 1 << b
        width = 2 << b
        for lo in range(0, m, _SLAB):
            vals = order[lo:lo + _SLAB]
            size = vals.shape[0]
            is_set = (vals & half) != 0
            running = weight.take(vals)
            running *= is_set
            # A slab is either a run of whole groups (rows, plus the short
            # last group as a tail) or a piece of one wide group (all tail,
            # the cumsum carried in from the slab before).
            if lo % width == 0:
                carry = n_clear = n_set = 0
            whole = size - size % width
            if whole:
                rows = running[:whole].reshape(-1, width)
                np.cumsum(rows, axis=1, out=rows)
            if whole < size:
                tail = running[whole:]
                np.cumsum(tail, out=tail)
                tail += carry
                carry = tail[-1]
            set_at = np.flatnonzero(is_set)
            clear_at = np.flatnonzero(~is_set)
            clear_vals = vals.take(clear_at)
            np.subtract.at(out, clear_vals, running.take(clear_at))
            # Partition.  Counted from the start of the group the slab
            # begins in, clear value number q lands q slots in plus one
            # ``half`` for every full group's worth of clear values before
            # it (none while the slab is inside one wide group, where q is
            # simply the running cursor); set values sit ``half`` further.
            start = lo - lo % width
            for seen, moved, side in (
                (n_clear, clear_vals, start),
                (n_set, vals.take(set_at), start + half),
            ):
                dest = np.arange(seen, seen + moved.shape[0])
                dest += dest & -half
                dest += side
                spare[dest] = moved
            n_clear += clear_at.shape[0]
            n_set += set_at.shape[0]
        order, spare = spare, order


def stack_distance_profile(
    trace: Trace, capacities: np.ndarray | list[int]
) -> np.ndarray:
    """LRU hit rate at each capacity (in *objects*), one O(n log n) pass.

    Classic Mattson stack analysis via :func:`stack_distances`: the LRU
    stack distance of each access is the number of distinct objects seen
    since its previous access; it hits in any LRU cache of at least that
    many (unit-size) slots.  Exact for unit sizes; a good approximation for
    the photo workload's narrow size distribution.
    """
    capacities = np.asarray(capacities, dtype=np.int64)
    if capacities.ndim != 1 or capacities.shape[0] == 0:
        raise ValueError("capacities must be a non-empty 1-D array")
    if (capacities <= 0).any():
        raise ValueError("capacities must be positive")

    distances = stack_distances(trace.object_ids)
    finite = np.sort(distances[distances != COLD_MISS])
    # An access with stack distance d (distinct objects between reuses)
    # hits iff the cache holds d + 1 objects (itself plus the d intruders).
    hits_at = np.searchsorted(finite, capacities - 1, side="right")
    return hits_at / trace.n_accesses


@dataclass(frozen=True)
class ReuseIntervalStats:
    median_seconds: float
    p90_seconds: float
    within_hour_fraction: float
    within_day_fraction: float


def reuse_interval_stats(trace: Trace) -> ReuseIntervalStats:
    """Time gaps between consecutive accesses to the same object."""
    nxt = compute_next_use(trace.object_ids)
    has_next = nxt != np.iinfo(np.int64).max
    if not has_next.any():
        raise ValueError("trace has no re-accesses")
    ts = trace.timestamps
    gaps = ts[nxt[has_next]] - ts[has_next]
    return ReuseIntervalStats(
        median_seconds=float(np.median(gaps)),
        p90_seconds=float(np.percentile(gaps, 90)),
        within_hour_fraction=float(np.mean(gaps <= 3600.0)),
        within_day_fraction=float(np.mean(gaps <= 86400.0)),
    )


def one_time_share_by_hour(trace: Trace) -> np.ndarray:
    """Fraction of accesses touching exactly-once objects, per hour of day.

    The paper reports this share peaking at ~05:00 and bottoming at ~20:00
    (§4.4.3), which is what schedules the daily retraining.
    """
    counts = trace.access_counts()
    is_one_time = counts[trace.object_ids] == 1
    hours = ((trace.timestamps % 86400.0) / 3600.0).astype(np.int64)
    share = np.zeros(24)
    for h in range(24):
        mask = hours == h
        share[h] = is_one_time[mask].mean() if mask.any() else 0.0
    return share
