"""Vectorised hit-run segmenting for the trace simulator.

The simulator's per-request Python loop costs ~0.5–2 µs/access even when
nothing interesting happens — e.g. long stretches of a hit-dominated replay
where no admission decision or eviction can alter observable policy state.
This module precomputes, once per trace, where those stretches *must* be.

Theory
------
Let ``d_i`` be the **byte-weighted Mattson stack distance** of access *i*
(:func:`repro.trace.analysis.stack_distances` with ``weights=trace.sizes``):
the total size of distinct objects touched strictly between access *i* and
the previous access of the same object.  For an LRU cache of capacity *C*
in which every miss is admitted::

    d_i + size_i <= C   =>   access i is a hit

Proof sketch: after its previous access the object sits on top of the
recency stack.  Any later insertion evicts from the LRU end, and can only
reach our object once every resident more recent than it is gone — but
those residents (plus the incoming object) are a subset of the distinct
objects touched since, whose bytes sum to at most ``d_i``, so the eviction
loop stops while ``d_i + size_i <= C`` still holds.  The condition is
sufficient, not necessary: accesses that fail it may still hit and are
simply left to the per-request loop.

Under a *denying* admission policy the implication needs the previous
access to have left the object resident, which the simulator (or the
policy's :meth:`~repro.cache.base.CachePolicy.access_batch`) re-confirms at
run time against actual cache contents — the plan only nominates
*candidate* runs, it never vouches for semantics.  The same holds for
non-LRU policies (FIFO, S3LRU, …) where the mask is a heuristic: candidate
runs that turn out to contain misses fall back to the exact loop.

Promotions
----------
Within a proven-hit run the resident set cannot change, so the only state a
stack policy carries out of the run is the final recency order — decided
entirely by each distinct object's **last occurrence**.  :meth:`
SegmentPlan.batches` therefore ships each run with its deduplicated
last-occurrence oid list (computed vectorised from a capacity-independent
next-occurrence index), which lets LRU replace ``len(run)`` ``move_to_end``
calls with ``len(distinct)`` of them and lets FIFO/SIEVE touch only the
distinct set.  On skewed workloads ``distinct/len`` is 0.2–0.4, which is
where most of the batching win comes from.

Cost: one grouping sort (the occurrence index) and one exact
stack-distance pass of ~log2(n) array levels per trace
(:func:`repro.trace.analysis.stack_distances_from_next_use`; shared across
every capacity and policy — :class:`~repro.experiments.grid.GridRunner`
reuses it for the whole 5-policy × 4-config × 10-capacity grid), then one
vectorised compare + run-length encoding + promotion gather per distinct
capacity.
"""

from __future__ import annotations

import numpy as np

from repro.cache.belady import compute_next_use
from repro.trace.records import Trace

__all__ = ["SegmentPlan", "DEFAULT_MIN_RUN"]

#: Minimum candidate-run length worth batching: below this the fixed cost
#: of the batch call + bookkeeping exceeds the loop it saves.
DEFAULT_MIN_RUN = 16

#: Attribute used to cache the plan on a Trace instance (traces are treated
#: as immutable once built, so the cache can never go stale).
_TRACE_CACHE_ATTR = "_segment_plan"


class SegmentPlan:
    """Per-trace index of guaranteed-hit candidate runs.

    Parameters
    ----------
    trace:
        The workload; only ``object_ids`` and per-access sizes are read.
    min_run:
        Shortest run of consecutive mask-true accesses worth emitting.

    The expensive part (the byte-weighted stack-distance pass) runs once in
    the constructor; :meth:`hit_runs` / :meth:`batches` are cheap
    vectorised passes per capacity, memoised because a grid evaluates
    several policies at the same capacity.
    """

    def __init__(self, trace: Trace, *, min_run: int = DEFAULT_MIN_RUN):
        # Deferred import: repro.trace.analysis itself imports from
        # repro.cache (Belady's next-use oracle), so a module-level import
        # here would close an import cycle through the package __init__s.
        from repro.trace.analysis import (
            COLD_MISS,
            stack_distances_from_next_use,
        )

        if min_run < 1:
            raise ValueError("min_run must be >= 1")
        self.min_run = int(min_run)
        self._oids = np.ascontiguousarray(trace.object_ids)
        sizes = trace.sizes.astype(np.int64, copy=False)
        self.n_accesses = int(sizes.shape[0])
        # The trace's one occurrence index: next_occ[i] = index of the next
        # access of the same object, or n when there is none.  The distance
        # pass reads it and _build_batches / export_arrays keep it.
        self._next_occ = compute_next_use(self._oids)
        np.minimum(self._next_occ, self.n_accesses, out=self._next_occ)
        distances = stack_distances_from_next_use(self._next_occ, sizes)
        # Demand = bytes that must fit for the access to be a proven hit
        # (the distinct intruders plus the object itself).  COLD_MISS stays
        # saturated rather than overflowing int64; nonpositive sizes (which
        # the per-request path rejects with ValueError) are saturated too so
        # they can never land inside a batch.
        self._demand = np.where(
            (distances == COLD_MISS) | (sizes <= 0),
            COLD_MISS,
            distances + sizes,
        )
        # Exclusive prefix sum of request bytes: batch byte counters become
        # two O(1) lookups instead of an O(batch) slice-sum per batch.
        self.prefix_bytes = np.concatenate(
            ([0], np.cumsum(sizes, dtype=np.int64))
        )
        self._runs: dict[int, np.ndarray] = {}
        self._batches: dict[int, list] = {}

    # ---------------------------------------------------------------- runs

    def hit_runs(self, capacity_bytes: int) -> np.ndarray:
        """Candidate guaranteed-hit runs for one capacity.

        Returns an ``(k, 2)`` int64 array of ``[start, end)`` trace-index
        pairs, sorted and disjoint, each at least ``min_run`` long.
        """
        capacity_bytes = int(capacity_bytes)
        runs = self._runs.get(capacity_bytes)
        if runs is None:
            runs = _mask_to_runs(
                self._demand <= capacity_bytes, self.min_run
            )
            self._runs[capacity_bytes] = runs
        return runs

    def batches(
        self, capacity_bytes: int
    ) -> "list[tuple[int, int, list[int]]]":
        """Per-run work orders: ``(start, end, distinct)`` tuples.

        ``distinct`` lists each distinct oid of ``object_ids[start:end]``
        exactly once, ordered by last occurrence — the promotion order a
        stack policy must apply to finish the run in the same state as the
        per-request loop (see
        :meth:`repro.cache.base.CachePolicy.access_batch`).  Built with one
        vectorised gather over a capacity-independent next-occurrence
        index, then memoised per capacity.
        """
        capacity_bytes = int(capacity_bytes)
        batches = self._batches.get(capacity_bytes)
        if batches is None:
            batches = self._build_batches(self.hit_runs(capacity_bytes))
            self._batches[capacity_bytes] = batches
        return batches

    def _build_batches(self, runs: np.ndarray) -> list:
        if runs.shape[0] == 0:
            return []
        starts = runs[:, 0]
        ends = runs[:, 1]
        lens = ends - starts
        # All in-run positions, concatenated: repeat each run's start minus
        # the running offset, then add arange — the standard "vectorised
        # concatenated aranges" construction.
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos = np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()))
        # Last occurrence *within its run*: the next access of the same
        # object falls at or beyond the run end.
        last = self._next_occ[pos] >= np.repeat(ends, lens)
        promo_pos = pos[last]
        promo_oids = self._oids[promo_pos].tolist()
        cuts = np.searchsorted(promo_pos, ends).tolist()
        out = []
        lo = 0
        for s, e, hi in zip(starts.tolist(), ends.tolist(), cuts):
            out.append((s, e, promo_oids[lo:hi]))
            lo = hi
        return out

    def coverage(self, capacity_bytes: int) -> float:
        """Fraction of trace accesses inside candidate runs (telemetry)."""
        runs = self.hit_runs(capacity_bytes)
        if runs.shape[0] == 0:
            return 0.0
        return float((runs[:, 1] - runs[:, 0]).sum() / self.n_accesses)

    # ------------------------------------------------------ array round-trip

    def export_arrays(self) -> dict:
        """The capacity-independent plan state as plain int64 arrays.

        ``demand``, ``prefix_bytes`` and ``next_occ`` are everything the
        O(n log n) construction produces; :meth:`from_arrays` rebuilds an
        equivalent plan from them without re-running the grouping sort or
        the stack-distance pass.  The
        per-capacity run/batch memos are *not* exported — they are cheap
        vectorised passes each consumer re-derives for the capacities it
        actually touches.
        """
        return {
            "oids": self._oids,
            "demand": self._demand,
            "prefix_bytes": self.prefix_bytes,
            "next_occ": self._next_occ,
        }

    @classmethod
    def from_arrays(
        cls, arrays: dict, *, min_run: int = DEFAULT_MIN_RUN
    ) -> "SegmentPlan":
        """Rebuild a plan from :meth:`export_arrays` output (zero-copy).

        ``arrays`` holds ``oids``/``demand``/``prefix_bytes``/``next_occ``
        of matching length.  No stack-distance pass runs.
        """
        if min_run < 1:
            raise ValueError("min_run must be >= 1")
        oids = arrays["oids"]
        n = int(oids.shape[0])
        demand = arrays["demand"]
        prefix = arrays["prefix_bytes"]
        next_occ = arrays["next_occ"]
        if demand.shape[0] != n or next_occ.shape[0] != n:
            raise ValueError("plan arrays disagree with trace length")
        if prefix.shape[0] != n + 1:
            raise ValueError("prefix_bytes must have n_accesses + 1 entries")
        plan = cls.__new__(cls)
        plan.min_run = int(min_run)
        plan._oids = oids
        plan._demand = demand
        plan.n_accesses = n
        plan.prefix_bytes = prefix
        plan._next_occ = next_occ
        plan._runs = {}
        plan._batches = {}
        return plan

    # -------------------------------------------------------------- caching

    @classmethod
    def for_trace(cls, trace: Trace) -> "SegmentPlan":
        """Build (or reuse) the plan cached on ``trace``.

        The plan is attached to the Trace instance, so repeated
        ``simulate()`` calls pay the stack-distance pass exactly once.  A
        pickled trace leaves the plan behind (``Trace.__reduce__``): a
        spawned grid worker builds its own on its first ``simulate()``.
        """
        plan = getattr(trace, _TRACE_CACHE_ATTR, None)
        if plan is None or plan.n_accesses != trace.n_accesses:
            plan = cls(trace)
            setattr(trace, _TRACE_CACHE_ATTR, plan)
        return plan


def _mask_to_runs(mask: np.ndarray, min_run: int) -> np.ndarray:
    """Run-length encode ``mask`` into ``[start, end)`` pairs >= min_run."""
    if not mask.any():
        return np.empty((0, 2), dtype=np.int64)
    padded = np.empty(mask.shape[0] + 2, dtype=np.int8)
    padded[0] = padded[-1] = 0
    padded[1:-1] = mask
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    keep = (ends - starts) >= min_run
    return np.stack([starts[keep], ends[keep]], axis=1).astype(np.int64)
