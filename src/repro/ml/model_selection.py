"""Cross-validation (used for Table 1).

The paper samples the log (100 records/minute), then "split[s] the sampled
data set into training data set and testing data set through cross
validation"; these helpers implement the standard machinery.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.ml.metrics import classification_report

__all__ = [
    "KFold",
    "StratifiedKFold",
    "cross_val_score",
    "cross_validate_metrics",
    "GridSearchCV",
]


class KFold:
    """Standard k-fold splitter yielding (train_idx, test_idx) pairs."""

    def __init__(self, n_splits: int = 5, *, shuffle: bool = True, rng=None):
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.rng = rng

    def split(self, X, y=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = np.asarray(X).shape[0]
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} samples into {self.n_splits} folds")
        idx = np.arange(n)
        if self.shuffle:
            np.random.default_rng(self.rng).shuffle(idx)
        for fold in np.array_split(idx, self.n_splits):
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            yield np.nonzero(mask)[0], fold


class StratifiedKFold(KFold):
    """K-fold preserving class balance in every fold."""

    def split(self, X, y=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        if y is None:
            raise ValueError("StratifiedKFold requires y")
        y = np.asarray(y)
        n = y.shape[0]
        rng = np.random.default_rng(self.rng)
        folds: list[list[np.ndarray]] = [[] for _ in range(self.n_splits)]
        for cls in np.unique(y):
            cls_idx = np.nonzero(y == cls)[0]
            if self.shuffle:
                rng.shuffle(cls_idx)
            for i, part in enumerate(np.array_split(cls_idx, self.n_splits)):
                folds[i].append(part)
        for parts in folds:
            fold = np.sort(np.concatenate(parts))
            if fold.shape[0] == 0:
                raise ValueError("a fold is empty; reduce n_splits")
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            yield np.nonzero(mask)[0], fold


def _clone(estimator):
    """Fresh copy of an estimator with the same constructor state."""
    import copy

    fresh = copy.deepcopy(estimator)
    # Drop any fitted state (attributes ending in "_", sklearn convention).
    for attr in [a for a in vars(fresh) if a.endswith("_")]:
        delattr(fresh, attr)
    return fresh


def cross_val_score(estimator, X, y, *, cv: KFold | None = None) -> np.ndarray:
    """Accuracy per fold."""
    X = np.asarray(X)
    y = np.asarray(y)
    cv = cv or StratifiedKFold(5, rng=0)
    scores = []
    for train_idx, test_idx in cv.split(X, y):
        model = _clone(estimator)
        model.fit(X[train_idx], y[train_idx])
        scores.append(model.score(X[test_idx], y[test_idx]))
    return np.asarray(scores)


class GridSearchCV:
    """Exhaustive hyper-parameter search by cross-validated accuracy.

    Minimal sklearn-style interface: pass an estimator *factory* — a
    callable accepting the grid's keyword arguments and returning an
    unfitted estimator — plus a dict of parameter lists.  After ``fit``,
    ``best_params_``/``best_score_`` hold the winner and ``best_estimator_``
    is refit on the full data.

    Example (tuning the paper's §3.1.2 split budget)::

        search = GridSearchCV(
            lambda **p: DecisionTreeClassifier(rng=0, **p),
            {"max_splits": [10, 30, 100], "min_samples_leaf": [1, 10]},
        )
        search.fit(X, y)
    """

    def __init__(self, factory, param_grid: dict, *, cv: KFold | None = None):
        if not param_grid:
            raise ValueError("param_grid must be non-empty")
        for name, values in param_grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"param {name!r} needs a non-empty list")
        self.factory = factory
        self.param_grid = dict(param_grid)
        self.cv = cv

    def _combinations(self):
        import itertools

        names = list(self.param_grid)
        for values in itertools.product(*(self.param_grid[n] for n in names)):
            yield dict(zip(names, values))

    def fit(self, X, y) -> "GridSearchCV":
        X = np.asarray(X)
        y = np.asarray(y)
        cv = self.cv or StratifiedKFold(3, rng=0)
        self.results_: list[dict] = []
        best = None
        for params in self._combinations():
            scores = cross_val_score(self.factory(**params), X, y, cv=cv)
            mean = float(scores.mean())
            self.results_.append({"params": params, "mean_accuracy": mean})
            if best is None or mean > best[0]:
                best = (mean, params)
        self.best_score_, self.best_params_ = best
        self.best_estimator_ = self.factory(**self.best_params_).fit(X, y)
        return self

    def predict(self, X):
        return self.best_estimator_.predict(X)


def cross_validate_metrics(
    estimator, X, y, *, cv: KFold | None = None, pos_label=1
) -> dict:
    """Mean precision/recall/accuracy/AUC across folds — one Table-1 row."""
    X = np.asarray(X)
    y = np.asarray(y)
    cv = cv or StratifiedKFold(5, rng=0)
    rows = []
    for train_idx, test_idx in cv.split(X, y):
        model = _clone(estimator)
        model.fit(X[train_idx], y[train_idx])
        y_pred = model.predict(X[test_idx])
        y_score = None
        if hasattr(model, "predict_proba"):
            proba = model.predict_proba(X[test_idx])
            pos_col = int(np.nonzero(model.classes_ == pos_label)[0][0])
            y_score = proba[:, pos_col]
        rows.append(
            classification_report(y[test_idx], y_pred, y_score, pos_label=pos_label)
        )
    keys = rows[0].keys()
    return {k: float(np.mean([r[k] for r in rows])) for k in keys}
