"""Self-tuning admission: threshold control from delayed-label feedback.

The paper fixes the precision/recall trade statically — the Table-4 cost
matrix picks ``v`` per capacity band.  But verdict ground truth *matures*
in production (after ``M`` further requests the re-access outcome is
known, cf. :mod:`repro.core.monitoring`), so the operating point can be
controlled instead of configured:

* the classifier supplies a *score* per request (P(one-time));
* the filter denies requests whose score clears a threshold ``τ``;
* matured verdicts stream back as (denied?, was-one-time?) pairs;
* a proportional controller nudges ``τ`` to hold the measured denial
  precision at a target (e.g. the 2/3 implied by v = 2).

This keeps the false-positive rate — the expensive error — pinned even as
the workload drifts, where a fixed cost matrix slowly mis-calibrates.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cache.base import AdmissionPolicy
from repro.core.history_table import HistoryTable

__all__ = ["AdaptiveThresholdAdmission"]


class AdaptiveThresholdAdmission(AdmissionPolicy):
    """Score-threshold admission with precision feedback control.

    Parameters
    ----------
    scores:
        Per-request one-time scores from the classifier (e.g.
        ``predict_proba[:, 1]`` of the daily models).
    reaccess_distance:
        Per-request reaccess distances
        (:func:`repro.core.labeling.reaccess_distances`).  In production
        this information arrives naturally ``M`` requests later; the
        simulator reveals each verdict's truth only once it has matured.
    m_threshold:
        The one-time criterion window ``M``.
    target_precision:
        Denial precision to hold (fraction of denials that were truly
        one-time).  ``v = 2`` corresponds to 2/3, ``v = 3`` to 3/4
        (the Elkan thresholds of Table 4).
    initial_threshold / step:
        Controller start point and per-update nudge.
    feedback_window:
        Matured verdicts per controller update.
    history_table:
        Optional §4.4.2 rectification table (same semantics as
        :class:`~repro.core.admission.ClassifierAdmission`).
    """

    def __init__(
        self,
        scores: np.ndarray,
        reaccess_distance: np.ndarray,
        m_threshold: float,
        *,
        target_precision: float = 2.0 / 3.0,
        initial_threshold: float = 0.5,
        step: float = 0.02,
        feedback_window: int = 200,
        history_table: HistoryTable | None = None,
    ):
        scores = np.asarray(scores, dtype=np.float64)
        dist = np.asarray(reaccess_distance, dtype=np.float64)
        if scores.ndim != 1 or scores.shape != dist.shape:
            raise ValueError("scores and reaccess_distance must be 1-D, equal length")
        if m_threshold <= 0:
            raise ValueError("m_threshold must be positive")
        if not 0.0 < target_precision < 1.0:
            raise ValueError("target_precision must be in (0, 1)")
        if not 0.0 <= initial_threshold <= 1.0:
            raise ValueError("initial_threshold must be in [0, 1]")
        if step <= 0 or feedback_window < 1:
            raise ValueError("step must be positive, feedback_window >= 1")

        self._scores = scores
        self._is_one_time = dist > m_threshold
        self.m_threshold = float(m_threshold)
        self.target_precision = target_precision
        self.step = step
        self.feedback_window = feedback_window
        self._tau0 = initial_threshold
        self.history = history_table if history_table is not None else HistoryTable(1024)
        self.reset()

    def reset(self) -> None:
        self.tau = self._tau0
        self.denied = 0
        self.rectified_admits = 0
        self.threshold_trace: list[float] = [self.tau]
        self._pending: deque[tuple[int, bool]] = deque()  # (index, denied?)
        self._window_tp = 0
        self._window_fp = 0
        self._window_n = 0
        self.history.clear()

    # ---------------------------------------------------------- controller

    def _mature(self, now: int) -> None:
        """Absorb verdicts whose truth is now known; maybe adjust τ."""
        horizon = self.m_threshold
        pending = self._pending
        while pending and now - pending[0][0] > horizon:
            index, was_denied = pending.popleft()
            if not was_denied:
                continue  # precision control only needs denial outcomes
            if self._is_one_time[index]:
                self._window_tp += 1
            else:
                self._window_fp += 1
            self._window_n += 1
            if self._window_n >= self.feedback_window:
                precision = self._window_tp / max(
                    self._window_tp + self._window_fp, 1
                )
                if precision < self.target_precision:
                    self.tau = min(1.0, self.tau + self.step)
                else:
                    self.tau = max(0.0, self.tau - self.step)
                self.threshold_trace.append(self.tau)
                self._window_tp = self._window_fp = self._window_n = 0

    # -------------------------------------------------------------- policy

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        self._mature(index)
        if self._scores[index] < self.tau:
            self._pending.append((index, False))
            return True
        if self.history.overrules(oid, index, self.m_threshold):
            self.rectified_admits += 1
            self._pending.append((index, False))
            return True
        self.denied += 1
        self._pending.append((index, True))
        return False

    def on_hit(self, index: int, oid: int, size: int) -> None:
        self._mature(index)

    # ------------------------------------------------------------- telemetry

    @property
    def final_threshold(self) -> float:
        return self.tau
