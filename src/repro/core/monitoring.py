"""Post-hoc admission-quality monitoring with delayed labels.

In production the ground truth of an admission verdict *matures*: once
``M`` further requests have passed, whether the object was re-accessed
within the window is known, so the verdict at position *i* can be scored at
position ``i + M``.  This module evaluates a recorded decision stream that
way — the ops-side complement to the §4.4.3 retraining schedule (it tells
you *when* the deployed model has drifted enough to matter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.labeling import ONE_TIME, one_time_labels

__all__ = ["WindowedQuality", "evaluate_admission_decisions", "label_horizon"]


def label_horizon(m_threshold: float) -> int:
    """Requests after which a verdict's one-time label has matured.

    Both scorers share this rule: ``M`` must be positive and finite.
    """
    if not (m_threshold > 0 and math.isfinite(m_threshold)):
        raise ValueError("m_threshold must be positive and finite")
    return math.ceil(m_threshold)


@dataclass(frozen=True)
class WindowedQuality:
    """Verdict quality over consecutive windows of the request stream."""

    window_size: int
    precision: np.ndarray   # per window; NaN where undefined
    recall: np.ndarray
    accuracy: np.ndarray
    n_scored: np.ndarray    # matured verdicts per window

    @property
    def n_windows(self) -> int:
        return int(self.n_scored.shape[0])

    @classmethod
    def from_counts(cls, window_size: int, counts: np.ndarray) -> "WindowedQuality":
        """Quality from ``(n_windows, 4)`` confusion counts per window.

        Columns are ``[tp, fp, fn, tn]`` with "one-time" (denied) the
        positive class.  A window with no scored verdict has NaN accuracy;
        precision and recall are NaN where their denominator is zero.
        """
        tp, fp, fn, tn = np.asarray(counts, dtype=np.int64).T

        def ratio(num, den):
            return np.divide(num, den, out=np.full(den.shape, np.nan), where=den > 0)

        n_scored = tp + fp + fn + tn
        return cls(
            window_size=window_size,
            precision=ratio(tp, tp + fp),
            recall=ratio(tp, tp + fn),
            accuracy=ratio(tp + tn, n_scored),
            n_scored=n_scored,
        )

    def worst_window(self) -> int:
        """Index of the lowest-accuracy window (drift alarm candidate)."""
        acc = np.where(self.n_scored > 0, self.accuracy, np.inf)
        return int(np.argmin(acc))


def evaluate_admission_decisions(
    object_ids: np.ndarray,
    denied: np.ndarray,
    m_threshold: float,
    *,
    window_size: int = 10_000,
) -> WindowedQuality:
    """Score a denial stream against matured one-time labels.

    Parameters
    ----------
    object_ids:
        The request stream (trace order).
    denied:
        Boolean per request: True where the system refused admission (its
        "one-time" verdicts).  Requests that hit in the cache should be
        recorded as ``False`` (the system implicitly treated them as
        re-accessed).
    m_threshold:
        The criterion window ``M`` used by the deployed system.
    window_size:
        Requests per evaluation window.

    Only verdicts that have matured — position ``i`` with
    ``i + M < n`` — are scored; the final partial horizon is excluded so
    end-of-stream truncation doesn't masquerade as one-time traffic.
    """
    object_ids = np.asarray(object_ids)
    denied = np.asarray(denied, dtype=bool)
    if object_ids.shape != denied.shape or object_ids.ndim != 1:
        raise ValueError("object_ids and denied must be 1-D of equal length")
    horizon = label_horizon(m_threshold)
    if window_size < 1:
        raise ValueError("window_size must be >= 1")

    n = object_ids.shape[0]
    scored_n = max(0, n - horizon)
    y = (one_time_labels(object_ids, m_threshold) == ONE_TIME)[:scored_n]
    d = denied[:scored_n]
    n_windows = max(1, -(-n // window_size))
    # Cell (window, [tp, fp, fn, tn]) of every matured verdict, counted at once.
    cell = np.arange(scored_n) // window_size * 4 + 2 * ~d + ~y
    counts = np.bincount(cell, minlength=4 * n_windows).reshape(n_windows, 4)
    return WindowedQuality.from_counts(window_size, counts)
