"""Cost-sensitive learning via the Elkan cost-matrix framework (§4.4.1).

The paper's Table 4 penalises the two misclassification directions
asymmetrically: predicting a *re-accessed* photo as one-time (a false
positive, causing future cache misses) costs ``v`` while the opposite error
(cache-space waste) costs 1.  ``v = 2`` for 2–12 GB caches and ``v = 3`` for
12–20 GB in the paper's configuration.

:class:`CostSensitiveClassifier` applies the matrix the way the paper does,
by **reweighting**: each training sample's weight is scaled by the cost of
misclassifying it, so any estimator accepting ``sample_weight`` learns the
cost rule and its fitted model serves the verdicts unchanged.
:attr:`CostMatrix.optimal_threshold` (Elkan 2001, Thm. 1) and
:func:`tune_threshold` are the posterior-side view of the same costs, for
analysing calibrated scores.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, check_array

__all__ = [
    "CostMatrix",
    "CostSensitiveClassifier",
    "select_cost_v",
    "tune_threshold",
]


@dataclass(frozen=True)
class CostMatrix:
    """2×2 misclassification costs for the binary one-time-access task.

    ``fn_cost``: true one-time predicted re-accessed → wasted cache write.
    ``fp_cost``: true re-accessed predicted one-time → extra cache misses
    (the paper's ``v``).  Correct decisions cost 0, per Table 4.
    """

    fn_cost: float = 1.0
    fp_cost: float = 2.0

    def __post_init__(self) -> None:
        if self.fn_cost <= 0 or self.fp_cost <= 0:
            raise ValueError("misclassification costs must be positive")

    @property
    def optimal_threshold(self) -> float:
        """Posterior threshold p* above which 'one-time' is the cheap call.

        Predicting positive (one-time) risks ``fp_cost`` with probability
        (1-p); predicting negative risks ``fn_cost`` with probability p.
        Positive is optimal when p ≥ fp/(fp+fn).
        """
        return self.fp_cost / (self.fp_cost + self.fn_cost)

    def sample_weights(self, y: np.ndarray, pos_label=1) -> np.ndarray:
        """Per-sample weights proportional to each sample's error cost."""
        y = np.asarray(y)
        return np.where(y == pos_label, self.fn_cost, self.fp_cost).astype(
            np.float64
        )


def select_cost_v(cache_bytes: float, *, boundary_bytes: float = 12 * 2**30) -> float:
    """The paper's capacity-dependent penalty: v=2 below 12 GB, v=3 above.

    ``cache_bytes`` is in the paper's sampled-trace scale (2–20 GB ≙
    200 GB–2 TB real); pass a rescaled ``boundary_bytes`` when running a
    down-scaled workload.
    """
    if cache_bytes <= 0:
        raise ValueError("cache_bytes must be positive")
    return 2.0 if cache_bytes < boundary_bytes else 3.0


def tune_threshold(
    y_true,
    scores,
    cost_matrix: CostMatrix,
    *,
    pos_label=1,
) -> tuple[float, float]:
    """Empirical cost-minimising score threshold.

    Elkan's p* = fp/(fp+fn) is optimal for *calibrated* posteriors; raw
    model scores often are not.  This sweeps every distinct score cut-off
    and returns ``(threshold, expected_cost_per_sample)`` minimising

        cost = fp_cost · FP + fn_cost · FN.

    Predict positive when ``score >= threshold``.
    """
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape or y_true.ndim != 1 or y_true.shape[0] == 0:
        raise ValueError("y_true and scores must be non-empty 1-D of equal length")
    pos = (y_true == pos_label).astype(np.float64)
    n = pos.shape[0]

    order = np.argsort(-scores, kind="stable")
    pos_sorted = pos[order]
    score_sorted = scores[order]

    # Candidate k = number of samples predicted positive (0..n), cutting
    # only between distinct scores.
    tp_cum = np.r_[0.0, np.cumsum(pos_sorted)]
    k = np.arange(n + 1)
    fp = k - tp_cum
    fn = pos.sum() - tp_cum
    cost = cost_matrix.fp_cost * fp + cost_matrix.fn_cost * fn

    distinct_cut = np.r_[
        True, score_sorted[1:] != score_sorted[:-1], True
    ]  # valid k values: 0, boundaries, n
    valid = np.nonzero(distinct_cut)[0]
    best_k = valid[np.argmin(cost[valid])]
    if best_k == 0:
        threshold = np.inf  # predict nothing positive
    else:
        threshold = float(score_sorted[best_k - 1])
    return threshold, float(cost[best_k] / n)


class CostSensitiveClassifier(BaseEstimator):
    """Wrap any binary estimator with a :class:`CostMatrix`.

    Parameters
    ----------
    estimator:
        Unfitted base estimator (cloned at fit time); it must accept
        ``sample_weight``.
    cost_matrix:
        The asymmetric costs.
    pos_label:
        Label of the one-time-access class.
    """

    def __init__(
        self,
        estimator: BaseEstimator,
        cost_matrix: CostMatrix,
        *,
        pos_label=1,
    ):
        self.estimator = estimator
        self.cost_matrix = cost_matrix
        self.pos_label = pos_label

    def fit(self, X, y, sample_weight=None) -> "CostSensitiveClassifier":
        """Fit the base on the cost weights times ``sample_weight``."""
        y = np.asarray(y)
        classes = np.unique(y)
        if classes.shape[0] != 2:
            raise ValueError("CostSensitiveClassifier is binary-only")
        if self.pos_label not in classes:
            raise ValueError(f"pos_label {self.pos_label!r} not present in y")
        self.classes_ = classes
        self.model_ = copy.deepcopy(self.estimator)
        w = self.cost_matrix.sample_weights(y, self.pos_label)
        if sample_weight is not None:
            w = w * np.asarray(sample_weight, dtype=np.float64)
        self.model_.fit(X, y, sample_weight=w)
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        return self.model_.predict_proba(check_array(X))

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        return self.model_.predict(check_array(X))

    def predict_one(self, x):
        """Single-row verdict: the fitted base's own fast path."""
        self._check_fitted()
        return self.model_.predict_one(x)

    def compile_predictor(self):
        """The fitted base's fastest exact-parity predictor.

        The cost rule lives in the training weights, so the base's own
        compiled tree (or GBDT walkers) already serves the wrapper's verdicts.
        """
        from repro.ml.fastpath import fast_predictor

        self._check_fitted()
        return fast_predictor(self.model_)
