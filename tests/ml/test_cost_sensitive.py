"""Tests for cost-sensitive learning (paper §4.4.1, Table 4)."""

import numpy as np
import pytest

from repro.ml import CostMatrix, CostSensitiveClassifier, DecisionTreeClassifier
from repro.ml.cost_sensitive import select_cost_v
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import precision_score, recall_score


def _imbalanced_noisy_dataset(seed=0, n=4000):
    """Binary data with an ambiguous region where costs matter."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    p = 1.0 / (1.0 + np.exp(-(1.5 * X[:, 0] + X[:, 1])))
    y = (rng.random(n) < p).astype(int)
    return X, y


class TestCostMatrix:
    def test_sample_weights_direction(self):
        cm = CostMatrix(fn_cost=1.0, fp_cost=2.0)
        w = cm.sample_weights(np.array([1, 0, 1, 0]))
        # Negatives (re-accessed photos) carry the higher fp cost.
        np.testing.assert_array_equal(w, [1.0, 2.0, 1.0, 2.0])

    def test_invalid_costs_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(fn_cost=0.0)
        with pytest.raises(ValueError):
            CostMatrix(fp_cost=-1.0)


class TestSelectCostV:
    def test_paper_boundaries(self):
        GiB = 2**30
        assert select_cost_v(2 * GiB) == 2.0
        assert select_cost_v(11 * GiB) == 2.0
        assert select_cost_v(12 * GiB) == 3.0
        assert select_cost_v(20 * GiB) == 3.0

    def test_custom_boundary(self):
        assert select_cost_v(100, boundary_bytes=50) == 3.0
        assert select_cost_v(10, boundary_bytes=50) == 2.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            select_cost_v(0)


class TestCostSensitiveClassifier:
    def test_higher_fp_cost_raises_precision(self):
        """Penalising false positives must trade recall for precision."""
        X, y = _imbalanced_noisy_dataset()
        plain = DecisionTreeClassifier(max_splits=10, rng=0).fit(X, y)
        costly = CostSensitiveClassifier(
            DecisionTreeClassifier(max_splits=10, rng=0),
            CostMatrix(fn_cost=1.0, fp_cost=6.0),
        ).fit(X, y)
        p0, r0 = precision_score(y, plain.predict(X)), recall_score(y, plain.predict(X))
        p1, r1 = (
            precision_score(y, costly.predict(X)),
            recall_score(y, costly.predict(X)),
        )
        assert p1 >= p0
        assert r1 <= r0

    def test_fit_is_the_base_fit_on_cost_times_sample_weights(self):
        """The paper's reduction (§4.4.1), pinned: fitting the wrapper is
        fitting its base on the Elkan cost weights times the caller's."""
        X, y = _imbalanced_noisy_dataset(seed=3, n=800)
        s = np.random.default_rng(3).uniform(0.5, 2.0, size=y.shape[0])
        cm = CostMatrix(fn_cost=1.0, fp_cost=3.0)
        wrapped = CostSensitiveClassifier(DecisionTreeClassifier(rng=0), cm).fit(
            X, y, sample_weight=s
        )
        direct = DecisionTreeClassifier(rng=0).fit(
            X, y, sample_weight=cm.sample_weights(y) * s
        )
        for name in (
            "feature_", "threshold_", "children_left_", "children_right_", "value_"
        ):
            np.testing.assert_array_equal(
                getattr(wrapped.model_, name), getattr(direct, name)
            )
        assert wrapped.compile_predictor().source == direct.compile_predictor().source

    def test_predict_proba_is_the_fitted_base_posterior(self):
        """The adaptive-threshold bench scores segments with it: the
        reweighted base's own posterior, columns in ``classes_`` order."""
        X, y = _imbalanced_noisy_dataset(seed=4, n=600)
        cs = CostSensitiveClassifier(
            DecisionTreeClassifier(max_splits=8, rng=0), CostMatrix(1.0, 3.0)
        ).fit(X, y)
        proba = cs.predict_proba(X)
        np.testing.assert_array_equal(proba, cs.model_.predict_proba(X))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        np.testing.assert_array_equal(
            cs.classes_[np.argmax(proba, axis=1)], cs.predict(X)
        )

    def test_logistic_base_is_reweighted_too(self):
        """A base without a tree still gets the weights and a predictor."""
        X, y = _imbalanced_noisy_dataset(seed=1)
        cs = CostSensitiveClassifier(
            LogisticRegression(max_iter=500), CostMatrix(fn_cost=1.0, fp_cost=4.0)
        ).fit(X, y)
        base = LogisticRegression(max_iter=500).fit(X, y)
        # Costlier false positives can only shrink the positive set.
        assert cs.predict(X).sum() <= base.predict(X).sum()
        np.testing.assert_array_equal(cs.compile_predictor().predict(X), cs.predict(X))

    def test_multiclass_rejected(self):
        with pytest.raises(ValueError):
            CostSensitiveClassifier(DecisionTreeClassifier(), CostMatrix()).fit(
                np.random.random((9, 2)), [0, 1, 2] * 3
            )

    def test_missing_pos_label_rejected(self):
        with pytest.raises(ValueError):
            CostSensitiveClassifier(
                DecisionTreeClassifier(), CostMatrix(), pos_label=5
            ).fit(np.random.random((4, 2)), [0, 1, 0, 1])

    def test_original_estimator_not_mutated(self):
        X, y = _imbalanced_noisy_dataset(seed=2, n=500)
        base = DecisionTreeClassifier(rng=0)
        CostSensitiveClassifier(base, CostMatrix()).fit(X, y)
        assert not hasattr(base, "classes_")

    def test_string_labels_supported(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 10)
        y = np.array(["keep", "keep", "once", "once"] * 10)
        cs = CostSensitiveClassifier(
            DecisionTreeClassifier(), CostMatrix(), pos_label="once"
        ).fit(X, y)
        assert set(cs.predict(X)) <= {"keep", "once"}
