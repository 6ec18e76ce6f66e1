"""Admission policies, including the paper's classification system (Fig. 4).

Four implementations of :class:`repro.cache.base.AdmissionPolicy`:

* :class:`AlwaysAdmit` — the traditional cache ("Original" curves);
* :class:`NeverAdmit`  — degenerate bound, useful in tests;
* :class:`OracleAdmission` — the "Ideal" 100 %-accurate classifier: admits
  exactly the accesses whose ground-truth label is *not* one-time;
* :class:`ClassifierAdmission` — the proposal over *precomputed*
  verdicts: a (daily-retrained) classifier's per-access predictions,
  softened by the §4.4.2 history table.  The experiment grid uses it; the
  offline node replay and the served node decide at miss time instead
  (:class:`repro.core.online.OnlineClassifierAdmission`).
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import AdmissionPolicy
from repro.core.history_table import HistoryTable
from repro.core.labeling import ONE_TIME

__all__ = [
    "AlwaysAdmit",
    "NeverAdmit",
    "OracleAdmission",
    "NoisyOracleAdmission",
    "ClassifierAdmission",
]


class AlwaysAdmit(AdmissionPolicy):
    """Traditional caching: every miss is written to the SSD."""

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        return True


class NeverAdmit(AdmissionPolicy):
    """Degenerate filter: nothing is ever cached."""

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        return False


class OracleAdmission(AdmissionPolicy):
    """The paper's *Ideal* configuration: perfect one-time knowledge.

    Takes the ground-truth per-access labels
    (:func:`repro.core.labeling.one_time_labels`) and denies exactly the
    one-time accesses.
    """

    def __init__(self, labels: np.ndarray):
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        self._deny = labels == ONE_TIME

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        return not self._deny[index]


class NoisyOracleAdmission(AdmissionPolicy):
    """An oracle corrupted with controlled error rates.

    The knob for accuracy-sensitivity studies (§5.2 claims advanced
    policies need a *more accurate* classifier to profit): flip true
    one-time labels to "reused" with probability ``fn_rate`` (missed
    exclusions → wasted writes) and true reused labels to "one-time" with
    probability ``fp_rate`` (wrong exclusions → lost hits).  With both
    rates 0 this is exactly :class:`OracleAdmission`.

    Flips are drawn once at construction so repeated simulations see the
    same corrupted classifier.
    """

    def __init__(
        self,
        labels: np.ndarray,
        *,
        fn_rate: float = 0.0,
        fp_rate: float = 0.0,
        rng: np.random.Generator | int | None = 0,
    ):
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        if not 0.0 <= fn_rate <= 1.0 or not 0.0 <= fp_rate <= 1.0:
            raise ValueError("error rates must be in [0, 1]")
        self.fn_rate = fn_rate
        self.fp_rate = fp_rate
        gen = np.random.default_rng(rng)
        is_one_time = labels == ONE_TIME
        flips = np.where(
            is_one_time,
            gen.random(labels.shape[0]) < fn_rate,
            gen.random(labels.shape[0]) < fp_rate,
        )
        self._truth = is_one_time
        self._deny = is_one_time ^ flips

    @property
    def effective_accuracy(self) -> float:
        """Fraction of verdicts agreeing with the true labels."""
        return float(np.mean(self._deny == self._truth))

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        return not self._deny[index]


class ClassifierAdmission(AdmissionPolicy):
    """Classifier + history table: the Fig.-4 workflow over a verdict column.

    Parameters
    ----------
    predicted_one_time:
        Boolean/int verdict per trace position (1 = predicted one-time).
        Predictions are computed up front (offline classification, §4.2) —
        they depend only on request-time features, so batching them does
        not change semantics, only speed.
    m_threshold:
        The criterion window used by the history-table rectification.
    history_table:
        Optional pre-built table; by default one is sized by the paper's
        rule from ``criteria`` telemetry via :meth:`from_criteria`.
    """

    def __init__(
        self,
        predicted_one_time: np.ndarray,
        m_threshold: float,
        history_table: HistoryTable | None = None,
    ):
        pred = np.asarray(predicted_one_time)
        if pred.ndim != 1:
            raise ValueError("predicted_one_time must be 1-D")
        if m_threshold <= 0:
            raise ValueError("m_threshold must be positive")
        self._pred = pred == ONE_TIME
        self.m_threshold = float(m_threshold)
        # Explicit None check: HistoryTable defines __len__, so an empty
        # (freshly sized) table would be falsy under `or`.
        self.history = (
            history_table if history_table is not None else HistoryTable(1024)
        )
        self.denied = 0
        self.rectified_admits = 0

    @classmethod
    def from_criteria(cls, predicted_one_time, criteria) -> "ClassifierAdmission":
        """Build with the §4.4.2 history-table sizing rule."""
        cap = HistoryTable.paper_capacity(
            criteria.m_threshold, criteria.hit_rate, criteria.one_time_share
        )
        return cls(
            predicted_one_time,
            criteria.m_threshold,
            HistoryTable(capacity=cap),
        )

    def should_admit(self, index: int, oid: int, size: int) -> bool:
        if not self._pred[index]:
            return True  # predicted to be re-accessed → cache it
        # Predicted one-time: the history table may overrule (§4.4.2).
        if self.history.overrules(oid, index, self.m_threshold):
            self.rectified_admits += 1
            return True
        self.denied += 1
        return False

    def reset(self) -> None:
        self.history.clear()
        self.denied = 0
        self.rectified_admits = 0
