"""Feature preprocessing: scaling and discretisation.

Section 3.2.3 of the paper buckets time values at 10-minute granularity;
KNN and the neural network additionally need standardised inputs.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array

__all__ = ["StandardScaler", "UniformDiscretizer"]


class StandardScaler:
    """Zero-mean / unit-variance scaling; constant columns are left at zero."""

    def fit(self, X) -> "StandardScaler":
        X = check_array(X)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        # A constant feature carries no information: scale by 1 to avoid 0/0.
        std[std == 0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X) -> np.ndarray:
        X = check_array(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"expected {self.mean_.shape[0]} features, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_


class UniformDiscretizer:
    """Fixed-width binning, e.g. the paper's 10-minute time buckets.

    Values are floored into bins of width ``bin_width`` starting at
    ``origin``; output is an int64 bin index, clipped to ``max_bins`` when
    given (the tail bucket absorbs outliers, mirroring how a bounded feature
    table would behave in production).
    """

    def __init__(self, bin_width: float, origin: float = 0.0, max_bins: int | None = None):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if max_bins is not None and max_bins < 1:
            raise ValueError("max_bins must be >= 1")
        self.bin_width = float(bin_width)
        self.origin = float(origin)
        self.max_bins = max_bins

    def transform(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        bins = np.floor((values - self.origin) / self.bin_width).astype(np.int64)
        bins = np.maximum(bins, 0)
        if self.max_bins is not None:
            bins = np.minimum(bins, self.max_bins - 1)
        return bins

    __call__ = transform
