"""Online (per-request) classification — the production deployment path.

The batch pipeline in :mod:`repro.core.training` precomputes per-access
verdicts because features are pure request-time functions.  A production
cache server cannot batch: it must build the feature vector *at miss time*
from running state and invoke the tree (the paper measures
``t_classify = 0.4 µs`` for its C implementation).  Both replay paths of
this repo do exactly that — :func:`repro.server.node.replay_offline` and
the served :class:`repro.server.node.CacheNode` drive the same
:class:`OnlineClassifierAdmission`, asked by the request loop on a miss
and on nothing else (Fig. 4; Eq. 6 charges ``t_classify`` to the miss
path only).

:class:`OnlineFeatureTracker` maintains the running state — last-access
time per object, and a trailing one-minute request window when the
feature plan reads it — and reproduces the offline feature matrix
*exactly* (this equivalence is tested), which proves the offline
evaluation does not leak future information.

Hot path: both classes *code-generate* their per-request functions for the
configured feature plan, the way :mod:`repro.ml.fastpath` generates the
tree.  The tracker packs the plan's static catalog columns (owner stats,
photo type/size, upload time) into one tuple per object at construction,
so a gather is one list index plus the dynamic features (recency, photo
age, access hour, trailing-minute count) computed inline from plain
floats; nothing interprets the plan per call, nothing is allocated, and no
NumPy scalar is touched.  :class:`OnlineClassifierAdmission` fuses gather →
compiled tree → state advance → §4.4.2 history table into one generated
callable per model (and one closure storing a timestamp on the hit side),
optionally reading the clock three times per decision so the Eq.-6
``t_classify`` term is measured, split into gather and tree walk, rather
than assumed.  ``use_fast_path=False`` keeps the un-fused reference path
(``tracker.features`` → ``model.predict``; same verdicts, used by the
parity harness), and ``timing_capacity=0`` generates the decision without
any clock read for pure-throughput runs.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.cache.base import AdmissionPolicy
from repro.core.features import FEATURE_NAMES, PAPER_FEATURE_NAMES
from repro.core.history_table import HistoryTable
from repro.core.labeling import ONE_TIME
from repro.ml.fastpath import CompiledPredictor, fast_predictor
from repro.obs.registry import Reservoir
from repro.trace.records import Trace

__all__ = ["OnlineFeatureTracker", "OnlineClassifierAdmission"]

_TEN_MINUTES = 600.0
_MAX_TIME_BUCKETS = 90 * 144
_MAX_BUCKET = float(_MAX_TIME_BUCKETS - 1)

#: Features that are a pure function of the object (one catalog gather).
_STATIC_FEATURES = (
    "owner_avg_views",
    "owner_active_friends",
    "photo_type",
    "photo_size",
)


def _compile(source: str, env: dict) -> dict:
    """``exec`` generated ``source`` over a copy of ``env``; returns the namespace."""
    namespace = dict(env)
    exec(compile(source, "<repro.core.online>", "exec"), namespace)
    return namespace


def _indent(lines) -> str:
    return "".join(f"    {line}\n" for line in lines)


def _bucket_lines(dst: str, seconds: str) -> list[str]:
    """``dst`` = ``seconds`` in ten-minute buckets, floored at 0 and clamped."""
    return [
        f"d = {seconds}",
        "if d > 0.0:",
        f"    b = d // {_TEN_MINUTES!r}",
        f"    {dst} = b if b < {_MAX_BUCKET!r} else {_MAX_BUCKET!r}",
        "else:",
        f"    {dst} = 0.0",
    ]


class OnlineFeatureTracker:
    """Incrementally compute the §3.2 features, one request at a time.

    ``observe(index)`` must be called for *every* request in trace order
    (hits included — recency depends on them); ``features(index)`` /
    ``features_into(index, out)`` return the feature vector for the
    current request *before* it is recorded.

    ``features_into`` and ``observe`` are generated at construction for the
    configured ``feature_names`` (:attr:`source` keeps the code): one
    straight-line function with the plan baked in, reading the static
    columns from one packed tuple per object.  The trailing-minute window
    is maintained only when ``recent_requests`` is in the plan, and pruned
    back to 60 trace-seconds every time that feature is read.
    """

    def __init__(self, trace: Trace, feature_names=PAPER_FEATURE_NAMES):
        self.trace = trace
        self.feature_names = tuple(feature_names)
        unknown = set(self.feature_names) - set(FEATURE_NAMES)
        if unknown:
            raise ValueError(f"unknown features: {sorted(unknown)}")
        self._has_recent = "recent_requests" in self.feature_names

        # Columnar float64 arrays: the source of the packed scalar columns
        # below, and what ``features_into_batch`` gathers from.
        self._np_ts = np.ascontiguousarray(trace.timestamps, dtype=np.float64)
        self._np_oids = np.ascontiguousarray(trace.object_ids, dtype=np.int64)
        self._np_terminal = trace.accesses["terminal"].astype(np.float64)
        catalog = trace.catalog
        owner = catalog["owner_id"]
        self._np_static = {
            "owner_avg_views": trace.owner_avg_views[owner].astype(np.float64),
            "owner_active_friends": trace.owner_active_friends[owner].astype(
                np.float64
            ),
            "photo_type": catalog["photo_type"].astype(np.float64),
            "photo_size": catalog["size"].astype(np.float64),
        }
        self._np_upload = catalog["upload_time"].astype(np.float64)

        # Scratch row for features(): reused across calls, copied on return.
        self._scratch = [0.0] * len(self.feature_names)

        # Running state.  The generated functions hold these objects by
        # reference: reset() must clear them in place.
        self._last_access: dict[int, float] = {}
        self._recent: deque[float] = deque()
        self._generate()

    # ----------------------------------------------------------- generation

    def _generate(self) -> None:
        """Build the packed columns and compile the per-request functions."""
        names = self.feature_names
        self._static_names = [
            n for n in dict.fromkeys(names) if n in _STATIC_FEATURES
        ]
        self._needs_upload = "recency" in names or "photo_age" in names
        # Plain Python floats: a list/tuple index is ~10× cheaper than a
        # NumPy scalar extraction.
        columns = [self._np_static[n].tolist() for n in self._static_names]
        if self._needs_upload:
            columns.append(self._np_upload.tolist())
        self._env = {
            "_ts": self._np_ts.tolist(),
            "_oids": self._np_oids.tolist(),
            "_static": list(zip(*columns)),
            "_last": self._last_access,
            "_last_get": self._last_access.get,
            "_recent": self._recent,
            "_recent_append": self._recent.append,
            "_recent_popleft": self._recent.popleft,
        }
        if "terminal" in names:
            self._env["_terminal"] = self._np_terminal.tolist()
        self.source = (
            "def features_into(index, out):\n"
            "    oid = _oids[index]\n"
            "    t = _ts[index]\n"
            + _indent(self._gather_lines("out"))
            + "    return out\n"
            "\n"
            "def observe(index):\n"
            "    oid = _oids[index]\n"
            "    t = _ts[index]\n"
            + _indent(self._observe_lines())
        )
        namespace = _compile(self.source, self._env)
        self.features_into = namespace["features_into"]
        self.features_into.__doc__ = (
            "Write the feature vector for ``index`` into ``out`` and return "
            "it.\n\n``out`` is any mutable indexable of length "
            "``len(feature_names)`` (a plain list is fastest); nothing is "
            "allocated.  The request must not yet have been ``observe``-d."
        )
        self.observe = namespace["observe"]
        self.observe.__doc__ = (
            "Record the request at ``index`` into the running state."
        )

    def _gather_lines(self, out: str) -> list[str]:
        """Source lines writing this plan's features into ``out``.

        They assume ``index``, ``oid`` and ``t`` (the request's position,
        object and timestamp) are bound and run over :attr:`_env`.
        """
        lines = []
        packed = [f"s{k}" for k in range(len(self._static_names))]
        if self._needs_upload:
            packed.append("up")
        if packed:
            lines.append(f"{', '.join(packed)}, = _static[oid]")
        for slot, name in enumerate(self.feature_names):
            dst = f"{out}[{slot}]"
            if name in _STATIC_FEATURES:
                lines.append(f"{dst} = s{self._static_names.index(name)}")
            elif name == "recency":
                # Seconds since the previous access, or since upload.
                lines += _bucket_lines(dst, "t - _last_get(oid, up)")
            elif name == "photo_age":
                lines += _bucket_lines(dst, "t - up")
            elif name == "access_hour":
                lines.append(f"{dst} = (t % 86400.0) // 3600.0")
            elif name == "terminal":
                lines.append(f"{dst} = _terminal[index]")
            else:  # recent_requests: prune the window, then count it
                lines += [
                    "cutoff = t - 60.0",
                    "while _recent and _recent[0] < cutoff:",
                    "    _recent_popleft()",
                    f"{dst} = float(len(_recent))",
                ]
        return lines

    def _observe_lines(self) -> list[str]:
        """Source lines recording the request (``oid``, ``t`` bound)."""
        lines = ["_last[oid] = t"]
        if self._has_recent:
            lines.append("_recent_append(t)")
        return lines

    # -------------------------------------------------------------- public

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
        which has been observed yet.  Dynamic features stay exact because
        trace timestamps are validated non-decreasing: intra-batch recency
        falls out of a stable sort over object ids, and the trailing-minute
        counter out of two ``searchsorted`` calls against the pre-batch
        window + the batch itself.
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

        for slot, name in enumerate(self.feature_names):
            if name in _STATIC_FEATURES:
                rows[:, slot] = self._np_static[name][oids]
            elif name == "recency":
                uploads = self._np_upload[oids]
                # dict.get at C speed with the per-object upload time as
                # the miss default, exactly as the scalar path.
                last = np.fromiter(
                    map(self._last_access.get, oid_list, uploads.tolist()),
                    dtype=np.float64,
                    count=n,
                )
                # Re-accesses *within* the batch: each occurrence's "last
                # access" is the previous occurrence's timestamp (the
                # sequential loop observes between rows).  Stable sort
                # groups equal oids in batch order.
                order = np.argsort(oids, kind="stable")
                sorted_oids = oids[order]
                dup = np.nonzero(sorted_oids[1:] == sorted_oids[:-1])[0]
                if dup.size:
                    last[order[dup + 1]] = ts[order[dup]]
                d = ts - last
                b = np.floor_divide(d, _TEN_MINUTES)
                np.minimum(b, _MAX_BUCKET, out=b)
                rows[:, slot] = np.where(d > 0.0, b, 0.0)
            elif name == "photo_age":
                d = ts - self._np_upload[oids]
                b = np.floor_divide(d, _TEN_MINUTES)
                np.minimum(b, _MAX_BUCKET, out=b)
                rows[:, slot] = np.where(d > 0.0, b, 0.0)
            elif name == "access_hour":
                rows[:, slot] = np.floor_divide(np.mod(ts, 86400.0), 3600.0)
            elif name == "terminal":
                rows[:, slot] = self._np_terminal[idx]
            else:  # recent_requests
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

        # State advance = n sequential observes; the trailing-minute window
        # exists only for a plan that reads it, pruned as the last read did.
        self._last_access.update(zip(oid_list, ts_list))
        if self._has_recent:
            recent = self._recent
            recent.extend(ts_list)
            cutoff_last = ts_list[-1] - 60.0
            while recent and recent[0] < cutoff_last:
                recent.popleft()
        return rows

    def reset(self) -> None:
        self._last_access.clear()
        self._recent.clear()


class OnlineClassifierAdmission(AdmissionPolicy):
    """Per-miss classification with live feature construction (Fig. 4).

    Semantically equivalent to
    :class:`repro.core.admission.ClassifierAdmission` fed with batch
    predictions from the same model, but computes each verdict at decision
    time — on a miss, never for a hit — and accumulates the measured
    per-decision latency (:attr:`mean_decision_seconds`, the empirical
    ``t_classify``).

    ``should_admit`` is one generated callable per bound predictor: gather
    into a reused buffer → ``predict_one`` → record the request →
    :meth:`~repro.core.history_table.HistoryTable.overrules` (:attr:`source`
    keeps the code); ``on_hit`` is one closure recording the request.
    :meth:`bind` regenerates them for a new model.  All state they touch —
    the tracker's, the history table, the counters on this object — is
    shared between generations, so a rebind while a replay loop still
    holds the previous callables loses nothing and changes no verdict of
    that loop.

    Parameters beyond the model/tracker/threshold triple:

    * ``use_fast_path`` (default on) — the generated decision over
      :func:`repro.ml.fastpath.fast_predictor`.  Off = the un-fused
      reference ``tracker.features(i)`` → ``model.predict`` path; verdicts
      are identical either way (asserted by the perf harness).
    * ``timing_capacity`` — ``0`` disables timing (the decision is
      generated without a clock read at all) for pure-throughput runs.
      Otherwise each decision reads ``perf_counter_ns`` three times and
      adds the gather and the tree walk to :attr:`feature_ns` /
      :attr:`inference_ns` — exact totals, nothing else per decision —
      and the value bounds the :attr:`decision_times` reservoir.

    The timed span covers exactly feature construction + prediction on
    both paths; history-table rectification and the state advance stay
    outside, so fast and reference timings are comparable.

    Note: the tracker must see *every* request, so this policy relies on
    the simulator's ``on_hit`` callback as well as ``should_admit``.
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
        #: Nanoseconds spent gathering features / walking the tree, summed
        #: over all timed decisions (0 when timing is disabled).
        self.feature_ns = 0
        self.inference_ns = 0
        self._times = Reservoir(capacity=max(1, timing_capacity))
        #: The bound :class:`~repro.ml.fastpath.CompiledPredictor` (None on
        #: the reference path) and, when a decision trace is attached, the
        #: dict each decision is captured into — see :meth:`bind`.
        self.predictor: CompiledPredictor | None = None
        self.capture: dict | None = None
        self.source = ""
        self._buf = [0.0] * len(tracker.feature_names)
        if self.use_fast_path:
            self.bind(fast_predictor(model))
        else:
            self._install(self._decide_reference, self._hit_reference)

    # ----------------------------------------------------------- generation

    def bind(
        self, predictor: CompiledPredictor, *, model=None, capture: dict | None = None
    ) -> None:
        """Regenerate the decision for ``predictor``; no-op if unchanged.

        ``model``, when given, replaces :attr:`model` (what ``predictor``
        was compiled from).  With a ``capture`` dict every decision also
        stores ``index → (verdict, feature row, t_classify ns)`` into it —
        the decision-trace hook; without one no capture code is generated.
        """
        if predictor is self.predictor and capture is self.capture:
            return
        if model is not None:
            self.model = model
        self.predictor = predictor
        self.capture = capture
        tracker = self.tracker
        timed = self.timing_enabled
        lines = ["t0 = _clock()"] if timed else []
        lines.append("t = _ts[index]")
        lines += tracker._gather_lines("_buf")
        if timed:
            lines.append("t1 = _clock()")
        lines.append("verdict = _predict_one(_buf)")
        if timed:
            lines += [
                "t2 = _clock()",
                "_adm.feature_ns += t1 - t0",
                "_adm.inference_ns += t2 - t1",
            ]
        if capture is not None:
            spent = "t2 - t0" if timed else "0"
            lines.append(f"_capture[index] = (verdict, _buf[:], {spent})")
        lines += tracker._observe_lines()
        lines += [
            "_adm.decisions += 1",
            "if verdict != _pos:",
            "    return True",
            # Predicted one-time: the history table may overrule (§4.4.2).
            "if _overrules(oid, index, _m):",
            "    _adm.rectified_admits += 1",
            "    return True",
            "_adm.denied += 1",
            "return False",
        ]
        self.source = (
            "def should_admit(index, oid, size):\n"
            + _indent(lines)
            + "\n"
            "def on_hit(index, oid, size):\n"
            "    t = _ts[index]\n"
            + _indent(tracker._observe_lines())
        )
        namespace = _compile(
            self.source,
            {
                **tracker._env,
                "_adm": self,
                "_buf": self._buf,
                "_capture": capture,
                "_clock": time.perf_counter_ns,
                "_m": self.m_threshold,
                "_overrules": self.history.overrules,
                "_pos": self.pos_label,
                "_predict_one": predictor.predict_one,
            },
        )
        self._install(namespace["should_admit"], namespace["on_hit"])

    def _install(self, decide, hit) -> None:
        self._decide = decide
        self._hit = hit
        # Shadow the forwarding methods below with the callables themselves
        # (one frame less per request) unless a subclass overrides them.
        for name, fn in (("should_admit", decide), ("on_hit", hit)):
            if getattr(type(self), name) is getattr(OnlineClassifierAdmission, name):
                setattr(self, name, fn)

    # ------------------------------------------------------- reference path

    def _decide_reference(self, index: int, oid: int, size: int) -> bool:
        """The decision, un-fused: what the generated callable computes."""
        t0 = time.perf_counter_ns()
        x = self.tracker.features(index)
        t1 = time.perf_counter_ns()
        verdict = self.model.predict(x.reshape(1, -1))[0]
        if self.timing_enabled:
            self.feature_ns += t1 - t0
            self.inference_ns += time.perf_counter_ns() - t1
        self.tracker.observe(index)
        self.decisions += 1
        if verdict != self.pos_label:
            return True
        if self.history.overrules(oid, index, self.m_threshold):
            self.rectified_admits += 1
            return True
        self.denied += 1
        return False

    def _hit_reference(self, index: int, oid: int, size: int) -> None:
        self.tracker.observe(index)

    # -------------------------------------------------------------- public

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        return self._decide(index, oid, size)

    def on_hit(self, index: int, oid: int, size: int) -> None:
        self._hit(index, oid, size)

    @property
    def decision_seconds(self) -> float:
        """Total timed classification seconds (gather + tree walk)."""
        return (self.feature_ns + self.inference_ns) * 1e-9

    @property
    def mean_decision_seconds(self) -> float:
        """Measured per-miss classification time (the Eq.-6 t_classify)."""
        return self.decision_seconds / self.decisions if self.decisions else 0.0

    @property
    def decision_times(self) -> Reservoir:
        """Bounded reservoir of per-decision seconds behind the
        ``t_classify`` percentiles (:func:`repro.server.metrics.admission_timing`).

        Amortised like the serving instruments: the hot path only sums
        nanoseconds, and each read enters the decisions made since the
        previous read as that many observations of their mean — count,
        total and mean exact, O(``timing_capacity``) memory however long
        the deployment.  Empty when timing is disabled.
        """
        times = self._times
        new = self.decisions - times.count
        if new and self.timing_enabled:
            times.add_repeated((self.decision_seconds - times.total) / new, new)
        return times

    def reset(self) -> None:
        self.tracker.reset()
        self.history.clear()
        self.denied = 0
        self.rectified_admits = 0
        self.decisions = 0
        self.feature_ns = self.inference_ns = 0
        self._times.clear()
