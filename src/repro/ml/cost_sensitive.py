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
        compiled tree already serves the wrapper's verdicts.
        """
        from repro.ml.fastpath import fast_predictor

        self._check_fitted()
        return fast_predictor(self.model_)
