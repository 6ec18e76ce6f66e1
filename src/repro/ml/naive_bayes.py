"""Gaussian Naive Bayes, one of the paper's Table-1 classifiers.

Table 1 shows Naive Bayes with very high recall but poor precision on the
one-time-access task — the conditional-independence assumption is badly
violated because the photo features are strongly correlated (e.g. photo age
and recency).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, check_sample_weight

__all__ = ["GaussianNB"]


class GaussianNB(BaseEstimator):
    """Gaussian likelihood per (class, feature) with weighted estimates."""

    def __init__(self, var_smoothing: float = 1e-9):
        if var_smoothing < 0:
            raise ValueError("var_smoothing must be non-negative")
        self.var_smoothing = var_smoothing

    def fit(self, X, y, sample_weight=None) -> "GaussianNB":
        X, y_raw = check_X_y(X, y)
        y = self._encode_labels(y_raw)
        w = check_sample_weight(sample_weight, X.shape[0])
        k = self.classes_.shape[0]
        d = X.shape[1]
        self.n_features_in_ = d

        self.theta_ = np.zeros((k, d))
        self.var_ = np.zeros((k, d))
        self.class_log_prior_ = np.zeros(k)
        w_total = w.sum()
        max_var = X.var(axis=0).max()
        eps = self.var_smoothing * max(max_var, 1e-12)
        for c in range(k):
            mask = y == c
            wc = w[mask]
            wsum = wc.sum()
            self.class_log_prior_[c] = np.log(wsum / w_total)
            mu = np.average(X[mask], axis=0, weights=wc)
            var = np.average((X[mask] - mu) ** 2, axis=0, weights=wc)
            self.theta_[c] = mu
            self.var_[c] = var + eps
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        # log N(x | mu, var) summed over features, plus log prior.
        n = X.shape[0]
        k = self.classes_.shape[0]
        jll = np.empty((n, k))
        for c in range(k):
            diff = X - self.theta_[c]
            jll[:, c] = self.class_log_prior_[c] - 0.5 * np.sum(
                np.log(2.0 * np.pi * self.var_[c]) + diff * diff / self.var_[c],
                axis=1,
            )
        return jll

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {X.shape[1]}"
            )
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        p = np.exp(jll)
        return p / p.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
