"""Tests for cross-validation."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    GridSearchCV,
    KFold,
    StratifiedKFold,
    cross_val_score,
    cross_validate_metrics,
)


class TestKFold:
    @pytest.mark.parametrize("cls", [KFold, StratifiedKFold])
    def test_folds_partition_data(self, cls):
        y = np.arange(40) % 2
        X = np.zeros((40, 1))
        all_test = []
        for train_idx, test_idx in cls(4, rng=0).split(X, y):
            assert np.intersect1d(train_idx, test_idx).shape[0] == 0
            assert train_idx.shape[0] + test_idx.shape[0] == 40
            all_test.append(test_idx)
        assert sorted(np.concatenate(all_test).tolist()) == list(range(40))

    def test_stratified_balance_per_fold(self):
        rng = np.random.default_rng(4)
        y = (rng.random(300) < 0.3).astype(int)
        X = np.zeros((300, 1))
        for _, test_idx in StratifiedKFold(5, rng=0).split(X, y):
            assert abs(y[test_idx].mean() - 0.3) < 0.1

    def test_requires_min_splits(self):
        with pytest.raises(ValueError):
            KFold(1)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(10).split(np.zeros((3, 1))))

    def test_stratified_requires_y(self):
        with pytest.raises(ValueError):
            list(StratifiedKFold(2).split(np.zeros((10, 1))))


class TestCrossValidation:
    def test_scores_shape_and_range(self, binary_dataset):
        X, y = binary_dataset
        scores = cross_val_score(
            DecisionTreeClassifier(rng=0), X, y, cv=StratifiedKFold(4, rng=0)
        )
        assert scores.shape == (4,)
        assert ((scores >= 0) & (scores <= 1)).all()
        assert scores.mean() > 0.8

    def test_metrics_keys(self, binary_dataset):
        X, y = binary_dataset
        m = cross_validate_metrics(DecisionTreeClassifier(rng=0), X, y)
        assert set(m) == {"precision", "recall", "accuracy", "auc"}
        assert all(0 <= v <= 1 for v in m.values())

    def test_estimator_left_unfitted(self, binary_dataset):
        X, y = binary_dataset
        est = DecisionTreeClassifier(rng=0)
        cross_val_score(est, X, y, cv=KFold(3, rng=0))
        assert not hasattr(est, "classes_")


class TestGridSearchCV:
    def _factory(self, **params):
        return DecisionTreeClassifier(rng=0, **params)

    def test_finds_reasonable_budget(self, binary_dataset):
        X, y = binary_dataset
        search = GridSearchCV(
            self._factory,
            {"max_splits": [1, 30], "min_samples_leaf": [1, 5]},
            cv=StratifiedKFold(3, rng=0),
        ).fit(X, y)
        # A single split cannot express this boundary; 30 must win.
        assert search.best_params_["max_splits"] == 30
        assert 0 <= search.best_score_ <= 1
        assert search.predict(X[:5]).shape == (5,)

    def test_results_cover_full_grid(self, binary_dataset):
        X, y = binary_dataset
        search = GridSearchCV(
            self._factory,
            {"max_splits": [1, 5, 30]},
            cv=StratifiedKFold(3, rng=0),
        ).fit(X[:400], y[:400])
        assert len(search.results_) == 3
        budgets = {r["params"]["max_splits"] for r in search.results_}
        assert budgets == {1, 5, 30}

    def test_best_estimator_refit_on_full_data(self, binary_dataset):
        X, y = binary_dataset
        search = GridSearchCV(
            self._factory, {"max_splits": [30]},
            cv=StratifiedKFold(3, rng=0),
        ).fit(X, y)
        assert hasattr(search.best_estimator_, "classes_")

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            GridSearchCV(self._factory, {})
        with pytest.raises(ValueError):
            GridSearchCV(self._factory, {"max_splits": []})
