"""Live admission-quality (drift) monitoring with delayed labels.

:func:`repro.core.monitoring.evaluate_admission_decisions` scores a
*recorded* verdict stream after the fact.  :class:`DriftMonitor` computes
the identical windowed precision/recall/accuracy *online*: the node feeds
it every request as it is processed, verdicts mature once ``M`` further
requests have been observed (the §4.4.2 horizon), and completed windows
update ``repro_admission_accuracy{window=...}`` gauges and — when
accuracy collapses below a threshold — fire pluggable alarm hooks.  That
alarm is the observable retraining trigger the paper's blind daily
schedule lacks.

Equivalence with the offline scorer is exact and tested: on a full
replay, :meth:`DriftMonitor.quality` reproduces
``evaluate_admission_decisions(object_ids, denied, M, window_size)``
bit-for-bit.  The streaming trick is that an access at position ``j``
settles the verdict of the *previous* access of the same object (reused
iff ``j - i <= M``), so at most one verdict per object is ever "open" and
memory stays O(pending horizon + objects in flight), independent of
stream length.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.core.monitoring import WindowedQuality
from repro.obs.structlog import get_logger

__all__ = ["DriftMonitor"]

logger = get_logger("obs.drift")

# Per-window confusion counts: [tp, fp, fn, tn] with "one-time" positive.
_TP, _FP, _FN, _TN = range(4)


class DriftMonitor:
    """Streaming windowed verdict scoring + threshold alarm.

    Parameters
    ----------
    m_threshold:
        The deployed criterion window ``M`` (re-access distances > M are
        one-time), identical to the offline scorer's.
    window_size:
        Requests per evaluation window.
    alarm_threshold:
        Fire the alarm when a completed window's accuracy drops below
        this; ``None`` disables alarming (scoring still runs).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` to export
        ``repro_admission_accuracy{window=}``, the worst/latest gauges
        and the alarm counter through.
    on_alarm:
        Iterable of callables ``hook(monitor, window, accuracy)`` invoked
        (after logging/counting) for each alarming window.
    """

    def __init__(
        self,
        m_threshold: float,
        *,
        window_size: int = 10_000,
        alarm_threshold: float | None = None,
        registry=None,
        on_alarm=(),
    ):
        if not (m_threshold > 0 and math.isfinite(m_threshold)):
            raise ValueError("m_threshold must be positive and finite")
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if alarm_threshold is not None and not 0.0 <= alarm_threshold <= 1.0:
            raise ValueError("alarm_threshold must be in [0, 1]")
        self.m_threshold = float(m_threshold)
        self.horizon = int(math.ceil(m_threshold))
        self.window_size = int(window_size)
        self.alarm_threshold = alarm_threshold
        self.on_alarm = list(on_alarm)

        # Entries are mutable lists [index, oid, denied, reused].
        self._pending: deque[list] = deque()
        self._open: dict[int, list] = {}
        self._n_obs = 0
        self._counts: dict[int, list[int]] = {}
        self._next_window = 0

        self.matured = 0
        self.alarms = 0
        self.last_alarm: tuple[int, float] | None = None
        self.last_accuracy: float | None = None
        self.worst_accuracy: float | None = None

        self._g_window = None
        if registry is not None:
            # The registry stores the per-window gauge; the scalars are read.
            self._g_window = registry.gauge(
                "repro_admission_accuracy",
                "Matured admission-verdict accuracy per completed window.",
                ("window",),
            )
            registry.gauge(
                "repro_admission_accuracy_last",
                "Accuracy of the most recently completed window.",
                read=lambda: self.last_accuracy or 0.0,
            )
            registry.gauge(
                "repro_admission_accuracy_worst",
                "Lowest completed-window accuracy so far.",
                read=lambda: self.worst_accuracy or 0.0,
            )
            registry.counter(
                "repro_drift_alarms_total",
                "Completed windows whose accuracy fell below the threshold.",
                read=lambda: self.alarms,
            )
            registry.counter(
                "repro_matured_verdicts_total",
                "Admission verdicts scored against matured labels.",
                read=lambda: self.matured,
            )

    # ---------------------------------------------------------------- feed

    def observe(self, index: int, oid: int, denied: bool) -> None:
        """Record one request (trace order; hits pass ``denied=False``)."""
        self.observe_range(index, (oid,), (denied,))

    def observe_range(self, lo: int, oids, denied) -> None:
        """Record the consecutive requests at trace positions ``lo, lo+1, …``.

        One call per micro-batch: verdicts mature inside the loop, windows
        complete once after it.  Completing late cannot change a window's
        counts — a window closes only when every position below its end has
        matured — so any partition of a stream into ranges scores alike.
        """
        open_verdicts, pending, counts = self._open, self._pending, self._counts
        m_threshold, horizon = self.m_threshold, self.horizon
        window_size = self.window_size
        n_obs = self._n_obs
        matured = 0
        for index, (oid, was_denied) in enumerate(zip(oids, denied), lo):
            prev = open_verdicts.get(oid)
            if prev is not None:
                # This access settles the previous verdict for the object:
                # within M requests -> reused, otherwise one-time forever.
                prev[3] = (index - prev[0]) <= m_threshold
            entry = [index, oid, was_denied, False]
            open_verdicts[oid] = entry
            pending.append(entry)
            n_obs += 1
            while pending and pending[0][0] + horizon < n_obs:
                entry = pending.popleft()
                at, entry_oid, entry_denied, reused = entry
                if open_verdicts.get(entry_oid) is entry:
                    # Never re-accessed inside the observed stream: one-time.
                    del open_verdicts[entry_oid]
                window = counts.get(at // window_size)
                if window is None:
                    window = counts[at // window_size] = [0, 0, 0, 0]
                if entry_denied:
                    window[_FP if reused else _TP] += 1
                else:
                    window[_TN if reused else _FN] += 1
                matured += 1
        self._n_obs = n_obs
        self.matured += matured
        self._complete_windows()

    def _complete_windows(self) -> None:
        frontier = self._pending[0][0] if self._pending else self._n_obs
        while frontier >= (self._next_window + 1) * self.window_size:
            self._finish_window(self._next_window)
            self._next_window += 1

    def _finish_window(self, w: int) -> None:
        counts = self._counts.get(w)
        total = sum(counts) if counts else 0
        if not total:
            return
        accuracy = (counts[_TP] + counts[_TN]) / total
        self.last_accuracy = accuracy
        if self.worst_accuracy is None or accuracy < self.worst_accuracy:
            self.worst_accuracy = accuracy
        if self._g_window is not None:
            self._g_window.labels(window=w).set(accuracy)
        if self.alarm_threshold is not None and accuracy < self.alarm_threshold:
            self.alarms += 1
            self.last_alarm = (w, accuracy)
            logger.warning(
                "admission accuracy %.4f in window %d below threshold %.4f",
                accuracy, w, self.alarm_threshold,
                extra={"window": w, "accuracy": accuracy,
                       "threshold": self.alarm_threshold},
            )
            for hook in self.on_alarm:
                hook(self, w, accuracy)

    def finish(self) -> None:
        """Force-complete every window holding matured verdicts.

        Call at end of stream: trailing windows whose positions have all
        matured-or-expired never cross the streaming completion frontier.
        Unmatured tail verdicts stay unscored, exactly like the offline
        scorer's excluded final horizon.
        """
        for w in sorted(self._counts):
            if w >= self._next_window:
                self._finish_window(w)
        self._next_window = max(self._counts, default=-1) + 1

    # ------------------------------------------------------------- outputs

    def quality(self, n_total: int | None = None) -> WindowedQuality:
        """Windowed quality over everything matured so far.

        With ``n_total`` (the full stream length) the result is shaped
        exactly like ``evaluate_admission_decisions`` on that stream —
        including trailing all-NaN windows — so the two can be compared
        element-wise.
        """
        if n_total is None:
            n_windows = max(1, max(self._counts, default=0) + 1)
        else:
            n_windows = max(1, -(-n_total // self.window_size))
        precision = np.full(n_windows, np.nan)
        recall = np.full(n_windows, np.nan)
        accuracy = np.full(n_windows, np.nan)
        n_scored = np.zeros(n_windows, dtype=np.int64)
        for w, (tp, fp, fn, tn) in self._counts.items():
            if w >= n_windows:
                continue
            total = tp + fp + fn + tn
            n_scored[w] = total
            if total:
                accuracy[w] = (tp + tn) / total
            precision[w] = tp / (tp + fp) if tp + fp else np.nan
            recall[w] = tp / (tp + fn) if tp + fn else np.nan
        return WindowedQuality(
            window_size=self.window_size,
            precision=precision,
            recall=recall,
            accuracy=accuracy,
            n_scored=n_scored,
        )

    def snapshot(self) -> dict:
        """JSON-able summary for STATS / ``/statsz``."""
        return {
            "window_size": self.window_size,
            "m_threshold": self.m_threshold,
            "observed": self._n_obs,
            "matured": self.matured,
            "windows_completed": self._next_window,
            "last_accuracy": self.last_accuracy,
            "worst_accuracy": self.worst_accuracy,
            "alarm_threshold": self.alarm_threshold,
            "alarms": self.alarms,
            "last_alarm": (
                {"window": self.last_alarm[0], "accuracy": self.last_alarm[1]}
                if self.last_alarm is not None
                else None
            ),
        }

    def reset(self) -> None:
        self._pending.clear()
        self._open.clear()
        self._counts.clear()
        self._n_obs = 0
        self._next_window = 0
        self.matured = 0
        self.alarms = 0
        self.last_alarm = None
        self.last_accuracy = None
        self.worst_accuracy = None
