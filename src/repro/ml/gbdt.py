"""Gradient-boosted decision trees (binary, logistic loss).

Not part of the paper's 2018 comparison, but the model family that later
learned-cache work (e.g. LRB's admission/eviction models) settled on — so
the natural "what would we deploy today" row next to Table 1.

Implementation: classic Friedman GBM with

* small **regression trees** fit to the negative gradient (residuals
  ``y − p`` of the logistic loss): each round is a
  :class:`~repro.ml.tree.DecisionTreeRegressor` — the repo's one tree
  grower — limited by depth and leaf size instead of a split budget;
* **Newton leaf values** ``Σr / Σ p(1−p)`` (one second-order step per
  leaf) written over the fitted tree's leaf means, the standard
  LogitBoost-style refinement;
* shrinkage (``learning_rate``) and optional row subsampling.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_X_y, check_array, check_sample_weight
from repro.ml.fastpath import CompiledPredictor
from repro.ml.tree import DecisionTreeRegressor

__all__ = ["GradientBoostingClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class GradientBoostingClassifier(BaseEstimator):
    """Binary GBM with logistic loss and Newton leaves.

    Parameters
    ----------
    n_estimators / learning_rate:
        Boosting rounds and shrinkage.
    max_depth / min_samples_leaf:
        Capacity of each regression tree.
    subsample:
        Row-sampling fraction per round (stochastic gradient boosting).
    """

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.rng = rng

    def fit(self, X, y, sample_weight=None) -> "GradientBoostingClassifier":
        X, y_raw = check_X_y(X, y)
        y = self._encode_labels(y_raw).astype(np.float64)
        if self.classes_.shape[0] != 2:
            raise ValueError("GradientBoostingClassifier is binary-only")
        w = check_sample_weight(sample_weight, X.shape[0])
        rng = np.random.default_rng(self.rng)
        n = X.shape[0]
        self.n_features_in_ = X.shape[1]

        p0 = float(np.clip(np.average(y, weights=w), 1e-6, 1 - 1e-6))
        self.init_score_ = float(np.log(p0 / (1.0 - p0)))
        F = np.full(n, self.init_score_)
        self.estimators_: list[DecisionTreeRegressor] = []

        for _ in range(self.n_estimators):
            p = _sigmoid(F)
            residual = y - p
            hessian = np.maximum(p * (1.0 - p), 1e-6)
            if self.subsample < 1.0:
                take = rng.random(n) < self.subsample
                if take.sum() < 2 * self.min_samples_leaf:
                    take = np.ones(n, dtype=bool)
            else:
                take = slice(None)
            tree = self._fit_round(X[take], residual[take], hessian[take], w[take])
            self.estimators_.append(tree)
            F = F + self.learning_rate * tree.predict(X)
        return self

    def _fit_round(self, X, residual, hessian, w) -> DecisionTreeRegressor:
        """One boosting round: a variance tree on the residuals, Newton leaves.

        The split search sees squared error only; the second-order step
        replaces each leaf's weighted mean ``Σwr / Σw`` by ``Σwr / Σwh``.
        """
        tree = DecisionTreeRegressor(
            max_splits=None,
            max_depth=self.max_depth,
            min_samples_split=max(2, 2 * self.min_samples_leaf),
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=1e-12,
        ).fit(X, residual, sample_weight=w)
        # The tree normalises its weights to sum to the row count; the leaf
        # sums use the same vector so they move with the split search's.
        w = check_sample_weight(w, X.shape[0])
        leaf_of = tree._leaf_ids(X)
        for leaf in np.unique(leaf_of):
            rows = leaf_of == leaf
            denom = float(np.sum(w[rows] * hessian[rows]))
            tree.value_[leaf] = (
                float(np.sum(w[rows] * residual[rows]) / denom) if denom > 1e-12 else 0.0
            )
        return tree

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected {self.n_features_in_} features, got {X.shape[1]}"
            )
        F = np.full(X.shape[0], self.init_score_)
        for tree in self.estimators_:
            F = F + self.learning_rate * tree.predict(X)
        return F

    def predict_proba(self, X) -> np.ndarray:
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        return self.classes_[
            (self.decision_function(X) >= 0).astype(np.int64)
        ]

    # ------------------------------------------------------------- fast path

    def compile_decision_function(self):
        """Compiled margin functions, bit-identical to ``decision_function``.

        Every regression tree is code-generated by its own
        ``compile_predictor`` (leaf values are the labels, so the compiled
        walkers return exact ``value_`` entries);
        the ensemble is then accumulated in the *same* float order as the
        reference — ``F = F + learning_rate * tree(x)``, one tree at a
        time from ``init_score_`` — so both the scalar and batch twins
        reproduce the reference margins to the last bit.

        Returns a :class:`~repro.ml.fastpath.CompiledPredictor` whose
        ``predict_one``/``predict`` yield raw margins, not class labels.
        """
        self._check_fitted()
        trees = [t.compile_predictor() for t in self.estimators_]
        ones = tuple(t.predict_one for t in trees)
        batches = tuple(t.predict for t in trees)
        init = self.init_score_
        lr = self.learning_rate

        def decision_one(x):
            F = init
            for f in ones:
                F = F + lr * f(x)
            return F

        def decision_batch(X):
            X = np.asarray(X, dtype=np.float64)
            F = np.full(X.shape[0], init)
            for f in batches:
                F = F + lr * f(X)
            return F

        return CompiledPredictor(
            predict_one=decision_one,
            predict=decision_batch,
            compiled=all(t.compiled for t in trees),
            n_nodes=sum(t.n_nodes for t in trees),
        )

    def compile_predictor(self):
        """Compiled class predictions, bit-identical to ``predict``."""
        df = self.compile_decision_function()
        decision_one = df.predict_one
        decision_batch = df.predict
        classes = self.classes_
        neg, pos = classes.tolist()

        def predict_one(x):
            return pos if decision_one(x) >= 0 else neg

        def predict(X):
            return classes[(decision_batch(X) >= 0).astype(np.int64)]

        return CompiledPredictor(
            predict_one=predict_one,
            predict=predict,
            compiled=df.compiled,
            n_nodes=df.n_nodes,
        )
