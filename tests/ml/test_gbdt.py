"""Tests for gradient boosting and the regression tree of one round."""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.metrics import roc_auc_score


def _round_tree(X, y, hessian=None, **params):
    """One boosting round's tree on ``(X, y)``: unit weights, Newton leaves.

    With a unit hessian the Newton step ``Σwr / Σwh`` is the leaf mean, so
    the tree is the plain regression tree the round is configured as.
    """
    ones = np.ones(len(y))
    return GradientBoostingClassifier(1, **params)._fit_round(
        np.asarray(X, dtype=np.float64), y, ones if hessian is None else hessian, ones
    )


class TestRegressionTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 3.0
        tree = _round_tree(X, y, max_depth=2, min_samples_leaf=5)
        pred = tree.predict(X)
        assert np.abs(pred - y).max() < 0.2

    def test_depth_one_is_single_split(self):
        rng = np.random.default_rng(0)
        X = rng.random((100, 2))
        y = X[:, 0] * 2.0
        tree = _round_tree(X, y, max_depth=1)
        assert tree.n_splits_ == 1
        assert len(set(tree.predict(X).tolist())) == 2

    def test_constant_target_gives_constant_leaf(self):
        X = np.random.default_rng(1).random((50, 2))
        tree = _round_tree(X, np.full(50, 7.0))
        assert tree.node_count_ == 1
        np.testing.assert_allclose(tree.predict(X), 7.0)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        X = rng.random((100, 1))
        y = rng.random(100)
        tree = _round_tree(X, y, max_depth=8, min_samples_leaf=25)
        # Leaves of ≥25 samples over 100 points → at most 4 leaves.
        assert len(np.unique(tree.predict(X))) <= 4
        occupancy = np.bincount(tree._leaf_ids(X), minlength=tree.node_count_)
        assert occupancy[tree.feature_ < 0].min() >= 25

    def test_hessian_scales_leaf_values(self):
        X = np.zeros((4, 1))
        y = np.array([1.0, 1.0, 1.0, 1.0])
        small_h = _round_tree(X, y, hessian=np.full(4, 0.5))
        big_h = _round_tree(X, y, hessian=np.full(4, 2.0))
        assert small_h.predict(X)[0] == pytest.approx(2.0)
        assert big_h.predict(X)[0] == pytest.approx(0.5)

    def test_one_round_is_one_newton_step(self):
        # Constant features: the round's tree is its root, so the margin
        # moves by learning_rate · Σr / Σh from the prior log-odds.
        X = np.zeros((8, 2))
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1])
        gbm = GradientBoostingClassifier(1, learning_rate=0.3).fit(X, y)
        p = 3 / 8
        r, h = y - p, np.full(8, p * (1 - p))
        assert gbm.init_score_ == pytest.approx(np.log(p / (1 - p)))
        np.testing.assert_allclose(
            gbm.decision_function(X), gbm.init_score_ + 0.3 * r.sum() / h.sum()
        )

    def test_invalid(self):
        # Rejected when constructed, not inside the first round's fit.
        with pytest.raises(ValueError, match="max_depth"):
            GradientBoostingClassifier(5, max_depth=0)
        with pytest.raises(ValueError, match="min_samples_leaf"):
            GradientBoostingClassifier(5, min_samples_leaf=0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(5).fit(np.zeros((3, 1)), np.zeros(2))


class TestGradientBoosting:
    def test_learns_xor(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(1500, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        gbm = GradientBoostingClassifier(60, max_depth=3, rng=0).fit(X, y)
        assert gbm.score(X, y) > 0.95

    def test_beats_single_tree_on_noisy_interactions(self, binary_dataset):
        X, y = binary_dataset
        tree = DecisionTreeClassifier(max_splits=30, rng=0).fit(X[:800], y[:800])
        gbm = GradientBoostingClassifier(80, rng=0).fit(X[:800], y[:800])
        auc_tree = roc_auc_score(y[800:], tree.predict_proba(X[800:])[:, 1])
        auc_gbm = roc_auc_score(y[800:], gbm.predict_proba(X[800:])[:, 1])
        assert auc_gbm >= auc_tree - 0.01

    def test_more_rounds_reduce_training_error(self, binary_dataset):
        X, y = binary_dataset
        few = GradientBoostingClassifier(5, rng=0).fit(X, y).score(X, y)
        many = GradientBoostingClassifier(80, rng=0).fit(X, y).score(X, y)
        assert many >= few

    def test_proba_valid(self, binary_dataset):
        X, y = binary_dataset
        gbm = GradientBoostingClassifier(10, rng=0).fit(X, y)
        p = gbm.predict_proba(X[:100])
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert ((p >= 0) & (p <= 1)).all()

    def test_subsampling_still_learns(self, binary_dataset):
        X, y = binary_dataset
        gbm = GradientBoostingClassifier(
            60, subsample=0.5, rng=0
        ).fit(X[:800], y[:800])
        assert gbm.score(X[800:], y[800:]) > 0.8

    def test_sample_weight_shifts_decision(self):
        X = np.array([[0.0]] * 8)
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1])
        w = np.array([1.0] * 5 + [10.0] * 3)
        gbm = GradientBoostingClassifier(30, rng=0).fit(X, y, sample_weight=w)
        assert gbm.predict(X)[0] == 1

    def test_deterministic_given_rng(self, binary_dataset):
        X, y = binary_dataset
        a = GradientBoostingClassifier(10, subsample=0.7, rng=5).fit(X, y)
        b = GradientBoostingClassifier(10, subsample=0.7, rng=5).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_multiclass_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(5).fit(
                np.random.random((9, 2)), [0, 1, 2] * 3
            )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(5, learning_rate=0)
        with pytest.raises(ValueError):
            GradientBoostingClassifier(5, subsample=0.0)
