"""Online (per-request) classification — the production deployment path.

The batch pipeline in :mod:`repro.core.training` precomputes per-access
verdicts because features are pure request-time functions.  A production
cache server cannot batch: it must build the feature vector *at miss time*
from running state and invoke the tree (the paper measures
``t_classify = 0.4 µs`` for its C implementation).

:class:`OnlineFeatureTracker` maintains that running state — last-access
time per object, a trailing one-minute request counter — and reproduces the
offline feature matrix *exactly* (this equivalence is tested), which proves
the offline evaluation does not leak future information.

Hot path: the tracker executes a *precomputed feature plan*.  Catalog-
derived columns (owner stats, photo type/size, upload time) are gathered
into per-object Python lists once at construction; dynamic features
(recency, age, hour, trailing-minute count) are computed inline from plain
floats; :meth:`OnlineFeatureTracker.features_into` writes the vector into a
caller-owned buffer, so the steady state allocates nothing and never
touches a dict of bound methods or a NumPy scalar.

:class:`OnlineClassifierAdmission` plugs the tracker + a fitted model +
the history table into the simulator.  By default it classifies through
:func:`repro.ml.fastpath.fast_predictor` — the code-generated tree — and
records per-decision wall time so the Eq.-6 ``t_classify`` term can be
measured rather than assumed; ``use_fast_path=False`` keeps the reference
``model.predict`` path (same verdicts, used by the parity harness), and
``timing_capacity=0`` disables timing entirely for pure-throughput runs.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.cache.base import AdmissionPolicy
from repro.core.features import PAPER_FEATURE_NAMES
from repro.core.history_table import HistoryTable
from repro.core.labeling import ONE_TIME
from repro.ml.fastpath import fast_predictor
from repro.obs.registry import Reservoir
from repro.trace.records import Trace

__all__ = ["OnlineFeatureTracker", "OnlineClassifierAdmission"]

_TEN_MINUTES = 600.0
_MAX_TIME_BUCKETS = 90 * 144
_MAX_BUCKET = float(_MAX_TIME_BUCKETS - 1)

# Feature plan op-codes (slots in the §3.2 feature set).
_F_OWNER_AVG_VIEWS = 0
_F_OWNER_ACTIVE_FRIENDS = 1
_F_PHOTO_TYPE = 2
_F_PHOTO_SIZE = 3
_F_PHOTO_AGE = 4
_F_RECENCY = 5
_F_ACCESS_HOUR = 6
_F_TERMINAL = 7
_F_RECENT_REQUESTS = 8

_FEATURE_CODES = {
    "owner_avg_views": _F_OWNER_AVG_VIEWS,
    "owner_active_friends": _F_OWNER_ACTIVE_FRIENDS,
    "photo_type": _F_PHOTO_TYPE,
    "photo_size": _F_PHOTO_SIZE,
    "photo_age": _F_PHOTO_AGE,
    "recency": _F_RECENCY,
    "access_hour": _F_ACCESS_HOUR,
    "terminal": _F_TERMINAL,
    "recent_requests": _F_RECENT_REQUESTS,
}


class OnlineFeatureTracker:
    """Incrementally compute the §3.2 features, one request at a time.

    ``observe(index)`` must be called for *every* request in trace order
    (hits included — recency depends on them); ``features(index)`` /
    ``features_into(index, out)`` return the feature vector for the
    current request *before* it is recorded.

    Construction precomputes the feature *plan*: per-object catalog
    columns are materialised as plain Python lists (a list index is ~10×
    cheaper than a NumPy scalar extraction), and each configured feature
    becomes one ``(slot, code)`` pair dispatched through a flat
    ``if``/``elif`` chain — no dict of bound methods, no per-request
    ndarray allocation.
    """

    def __init__(self, trace: Trace, feature_names=PAPER_FEATURE_NAMES):
        self.trace = trace
        self.feature_names = tuple(feature_names)
        unknown = set(self.feature_names) - set(_FEATURE_CODES)
        if unknown:
            raise ValueError(f"unknown features: {sorted(unknown)}")
        self._plan = tuple(
            (slot, _FEATURE_CODES[name])
            for slot, name in enumerate(self.feature_names)
        )

        # Per-access columns (trace order): float64 arrays feed the columnar
        # batch path; their ``tolist()`` twins feed the scalar hot path
        # (a list index is ~10× cheaper than a NumPy scalar extraction).
        self._np_ts = np.ascontiguousarray(trace.timestamps, dtype=np.float64)
        self._np_oids = np.ascontiguousarray(trace.object_ids, dtype=np.int64)
        self._np_terminal = trace.accesses["terminal"].astype(np.float64)
        self._ts_list = self._np_ts.tolist()
        self._oid_list = self._np_oids.tolist()
        self._terminal_list = self._np_terminal.tolist()

        # Per-object catalog columns, gathered once (indexed by oid).
        catalog = trace.catalog
        self._np_owner_avg_views = trace.owner_avg_views[
            catalog["owner_id"]
        ].astype(np.float64)
        self._np_owner_active_friends = trace.owner_active_friends[
            catalog["owner_id"]
        ].astype(np.float64)
        self._np_photo_type = catalog["photo_type"].astype(np.float64)
        self._np_size = catalog["size"].astype(np.float64)
        self._np_upload = catalog["upload_time"].astype(np.float64)
        self._col_owner_avg_views = self._np_owner_avg_views.tolist()
        self._col_owner_active_friends = self._np_owner_active_friends.tolist()
        self._col_photo_type = self._np_photo_type.tolist()
        self._col_size = self._np_size.tolist()
        self._col_upload = self._np_upload.tolist()

        self._has_recent = any(
            code == _F_RECENT_REQUESTS for _, code in self._plan
        )
        # Scratch row for features(): reused across calls, copied on return.
        self._scratch = [0.0] * len(self.feature_names)

        # Running state.
        self._last_access: dict[int, float] = {}
        self._recent: deque[float] = deque()

    # -------------------------------------------------------------- public

    def features_into(self, index: int, out):
        """Write the feature vector for ``index`` into ``out`` and return it.

        ``out`` is any mutable indexable of length ``len(feature_names)``
        (a plain list is fastest); nothing is allocated.  The request must
        not yet have been ``observe``-d.
        """
        oid = self._oid_list[index]
        t = self._ts_list[index]
        for slot, code in self._plan:
            if code == _F_RECENCY:
                last = self._last_access.get(oid)
                if last is None:
                    last = self._col_upload[oid]
                d = t - last
                b = float(int(d // _TEN_MINUTES)) if d > 0.0 else 0.0
                out[slot] = b if b < _MAX_BUCKET else _MAX_BUCKET
            elif code == _F_PHOTO_AGE:
                d = t - self._col_upload[oid]
                b = float(int(d // _TEN_MINUTES)) if d > 0.0 else 0.0
                out[slot] = b if b < _MAX_BUCKET else _MAX_BUCKET
            elif code == _F_OWNER_AVG_VIEWS:
                out[slot] = self._col_owner_avg_views[oid]
            elif code == _F_ACCESS_HOUR:
                out[slot] = float(int((t % 86400.0) // 3600.0))
            elif code == _F_PHOTO_TYPE:
                out[slot] = self._col_photo_type[oid]
            elif code == _F_PHOTO_SIZE:
                out[slot] = self._col_size[oid]
            elif code == _F_OWNER_ACTIVE_FRIENDS:
                out[slot] = self._col_owner_active_friends[oid]
            elif code == _F_TERMINAL:
                out[slot] = self._terminal_list[index]
            else:  # _F_RECENT_REQUESTS
                recent = self._recent
                cutoff = t - 60.0
                while recent and recent[0] < cutoff:
                    recent.popleft()
                out[slot] = float(len(recent))
        return out

    def features(self, index: int) -> np.ndarray:
        """Feature vector for the request at ``index`` (not yet observed).

        Computed through a reused scratch row (no per-call list build); the
        returned array is a fresh copy, never a view of the scratch.
        """
        return np.array(self.features_into(index, self._scratch))

    def features_into_batch(self, indices, out: np.ndarray) -> np.ndarray:
        """Columnar twin of the per-row ``features_into`` + ``observe`` loop.

        Fills ``out[:n]`` (a 2-D float64 matrix with at least ``n`` rows)
        with one feature row per position and advances the running state,
        producing *bit-identical* rows and end state to ``n`` sequential
        ``features_into(i, out[row]); observe(i)`` calls (property-tested).

        ``indices`` must be an ascending run of trace positions none of
        which has been observed yet — exactly the contiguous micro-batch
        the serving layer's sequencer hands :meth:`CacheNode.process_batch`.
        Dynamic features stay exact because trace timestamps are validated
        non-decreasing: intra-batch recency falls out of a stable sort over
        object ids, and the trailing-minute counter out of two
        ``searchsorted`` calls against the pre-batch window + the batch
        itself.
        """
        n = len(indices)
        rows = out[:n]
        if n == 0:
            return rows
        idx = np.asarray(indices, dtype=np.intp)
        oids = self._np_oids[idx]
        ts = self._np_ts[idx]
        oid_list = oids.tolist()
        ts_list = ts.tolist()
        recency_last: np.ndarray | None = None

        for slot, code in self._plan:
            if code == _F_RECENCY:
                if recency_last is None:
                    uploads = self._np_upload[oids]
                    # dict.get at C speed with the per-object upload time as
                    # the miss default — the scalar path's None fallback.
                    last = np.fromiter(
                        map(self._last_access.get, oid_list, uploads.tolist()),
                        dtype=np.float64,
                        count=n,
                    )
                    # Re-accesses *within* the batch: each occurrence's
                    # "last access" is the previous occurrence's timestamp
                    # (the sequential loop observes between rows).  Stable
                    # sort groups equal oids in batch order.
                    order = np.argsort(oids, kind="stable")
                    sorted_oids = oids[order]
                    dup = np.nonzero(sorted_oids[1:] == sorted_oids[:-1])[0]
                    if dup.size:
                        last[order[dup + 1]] = ts[order[dup]]
                    recency_last = last
                d = ts - recency_last
                b = np.floor_divide(d, _TEN_MINUTES)
                np.minimum(b, _MAX_BUCKET, out=b)
                rows[:, slot] = np.where(d > 0.0, b, 0.0)
            elif code == _F_PHOTO_AGE:
                d = ts - self._np_upload[oids]
                b = np.floor_divide(d, _TEN_MINUTES)
                np.minimum(b, _MAX_BUCKET, out=b)
                rows[:, slot] = np.where(d > 0.0, b, 0.0)
            elif code == _F_OWNER_AVG_VIEWS:
                rows[:, slot] = self._np_owner_avg_views[oids]
            elif code == _F_ACCESS_HOUR:
                rows[:, slot] = np.floor_divide(np.mod(ts, 86400.0), 3600.0)
            elif code == _F_PHOTO_TYPE:
                rows[:, slot] = self._np_photo_type[oids]
            elif code == _F_PHOTO_SIZE:
                rows[:, slot] = self._np_size[oids]
            elif code == _F_OWNER_ACTIVE_FRIENDS:
                rows[:, slot] = self._np_owner_active_friends[oids]
            elif code == _F_TERMINAL:
                rows[:, slot] = self._np_terminal[idx]
            else:  # _F_RECENT_REQUESTS
                cutoff = ts - 60.0
                recent = self._recent
                n_win = len(recent)
                within = np.arange(n) - np.searchsorted(ts, cutoff, side="left")
                if n_win:
                    win = np.fromiter(recent, dtype=np.float64, count=n_win)
                    prior = n_win - np.searchsorted(win, cutoff, side="left")
                    rows[:, slot] = prior + within
                else:
                    rows[:, slot] = within

        # State advance = n sequential observes (+ the scalar path's lazy
        # window pruning, which only ever happens when the plan computes
        # recent_requests).
        self._last_access.update(zip(oid_list, ts_list))
        recent = self._recent
        recent.extend(ts_list)
        if self._has_recent:
            cutoff_last = ts_list[-1] - 60.0
            while recent and recent[0] < cutoff_last:
                recent.popleft()
        return rows

    def observe(self, index: int) -> None:
        """Record the request at ``index`` into the running state."""
        t = self._ts_list[index]
        self._last_access[self._oid_list[index]] = t
        self._recent.append(t)

    def reset(self) -> None:
        self._last_access.clear()
        self._recent.clear()


class OnlineClassifierAdmission(AdmissionPolicy):
    """Per-miss classification with live feature construction (Fig. 4).

    Semantically equivalent to
    :class:`repro.core.admission.ClassifierAdmission` fed with batch
    predictions from the same model, but computes each verdict at decision
    time and accumulates the measured per-decision latency
    (:attr:`mean_decision_seconds` — the empirical ``t_classify``).

    Parameters beyond the model/tracker/threshold triple:

    * ``use_fast_path`` (default on) — classify through
      :func:`repro.ml.fastpath.fast_predictor` (compiled tree +
      ``features_into`` into a reused buffer).  Off = the reference
      ``tracker.features(i)`` → ``model.predict`` path; verdicts are
      identical either way (asserted by the perf harness).
    * ``timing_capacity`` — reservoir bound for per-decision latencies;
      ``0`` disables timing *entirely* (no ``perf_counter`` calls on the
      hot path) for pure-throughput runs.

    The timed span covers exactly feature construction + prediction on
    both paths; history-table rectification and ``observe`` stay outside,
    so fast and reference timings are comparable.

    Note: ``observe`` must see *every* request, so this policy relies on the
    simulator's ``on_hit`` callback as well as ``should_admit``.
    """

    def __init__(
        self,
        model,
        tracker: OnlineFeatureTracker,
        m_threshold: float,
        history_table: HistoryTable | None = None,
        pos_label=ONE_TIME,
        timing_capacity: int = 10_000,
        use_fast_path: bool = True,
    ):
        if m_threshold <= 0:
            raise ValueError("m_threshold must be positive")
        if timing_capacity < 0:
            raise ValueError("timing_capacity must be >= 0")
        self.model = model
        self.tracker = tracker
        self.m_threshold = float(m_threshold)
        self.history = history_table if history_table is not None else HistoryTable(1024)
        self.pos_label = pos_label
        self.use_fast_path = bool(use_fast_path)
        self.timing_enabled = timing_capacity > 0
        self.denied = 0
        self.rectified_admits = 0
        self.decisions = 0
        self.decision_seconds = 0.0
        #: Monotonic (``time.perf_counter``) per-decision durations behind
        #: the Eq.-6 ``t_classify`` percentiles in the serving metrics
        #: snapshot (:func:`repro.server.metrics.admission_timing`) — a
        #: bounded :class:`~repro.obs.registry.Reservoir`, so a long
        #: deployment keeps O(``timing_capacity``) memory while count,
        #: mean and max stay exact.  Empty when timing is disabled.
        self.decision_times = Reservoir(capacity=max(1, timing_capacity))
        if self.use_fast_path:
            self._predict_one = fast_predictor(model).predict_one
            self._buf = [0.0] * len(tracker.feature_names)
            self._classify = (
                self._classify_fast_timed
                if self.timing_enabled
                else self._classify_fast
            )
        else:
            self._classify = (
                self._classify_reference_timed
                if self.timing_enabled
                else self._classify_reference
            )

    @property
    def mean_decision_seconds(self) -> float:
        """Measured per-miss classification time (the Eq.-6 t_classify)."""
        return self.decision_seconds / self.decisions if self.decisions else 0.0

    # ---------------------------------------------------- classify variants

    def _classify_fast(self, index: int):
        return self._predict_one(self.tracker.features_into(index, self._buf))

    def _classify_fast_timed(self, index: int):
        t0 = time.perf_counter()
        verdict = self._predict_one(
            self.tracker.features_into(index, self._buf)
        )
        elapsed = time.perf_counter() - t0
        self.decision_seconds += elapsed
        self.decision_times.add(elapsed)
        return verdict

    def _classify_reference(self, index: int):
        x = self.tracker.features(index)
        return self.model.predict(x.reshape(1, -1))[0]

    def _classify_reference_timed(self, index: int):
        t0 = time.perf_counter()
        x = self.tracker.features(index)
        verdict = self.model.predict(x.reshape(1, -1))[0]
        elapsed = time.perf_counter() - t0
        self.decision_seconds += elapsed
        self.decision_times.add(elapsed)
        return verdict

    # -------------------------------------------------------------- public

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        verdict = self._classify(index)
        self.decisions += 1
        self.tracker.observe(index)

        if verdict != self.pos_label:
            return True
        if self.history.overrules(oid, index, self.m_threshold):
            self.rectified_admits += 1
            return True
        self.denied += 1
        return False

    def on_hit(self, index: int, oid: int, size: int) -> None:
        self.tracker.observe(index)

    def reset(self) -> None:
        self.tracker.reset()
        self.history.clear()
        self.denied = 0
        self.rectified_admits = 0
        self.decisions = 0
        self.decision_seconds = 0.0
        self.decision_times.clear()
