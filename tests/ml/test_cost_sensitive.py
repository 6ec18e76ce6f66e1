"""Tests for cost-sensitive learning (paper §4.4.1, Table 4)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml import CostMatrix, CostSensitiveClassifier, DecisionTreeClassifier
from repro.ml.cost_sensitive import select_cost_v, tune_threshold
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
    def test_threshold_formula(self):
        cm = CostMatrix(fn_cost=1.0, fp_cost=2.0)
        assert cm.optimal_threshold == pytest.approx(2 / 3)
        cm = CostMatrix(fn_cost=1.0, fp_cost=3.0)
        assert cm.optimal_threshold == pytest.approx(3 / 4)

    def test_symmetric_costs_threshold_half(self):
        assert CostMatrix(1.0, 1.0).optimal_threshold == pytest.approx(0.5)

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

    @given(st.floats(0.1, 10), st.floats(0.1, 10))
    def test_threshold_in_unit_interval(self, fn, fp):
        assert 0.0 < CostMatrix(fn, fp).optimal_threshold < 1.0


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


class TestTuneThreshold:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.2, 0.8, 0.9])
        thr, cost = tune_threshold(y, s, CostMatrix(1.0, 1.0))
        assert 0.2 < thr <= 0.8
        assert cost == 0.0

    def test_matches_elkan_on_calibrated_scores(self):
        """On calibrated posteriors the tuned cut ≈ the theoretical p*."""
        rng = np.random.default_rng(0)
        p = rng.random(60_000)
        y = (rng.random(60_000) < p).astype(int)
        cm = CostMatrix(fn_cost=1.0, fp_cost=3.0)
        thr, _ = tune_threshold(y, p, cm)
        assert thr == pytest.approx(cm.optimal_threshold, abs=0.05)

    def test_high_fp_cost_raises_threshold(self):
        rng = np.random.default_rng(1)
        p = rng.random(20_000)
        y = (rng.random(20_000) < p).astype(int)
        thr_lo, _ = tune_threshold(y, p, CostMatrix(1.0, 1.0))
        thr_hi, _ = tune_threshold(y, p, CostMatrix(1.0, 5.0))
        assert thr_hi > thr_lo

    def test_all_negative_predicts_nothing(self):
        y = np.zeros(10, dtype=int)
        s = np.linspace(0, 1, 10)
        thr, cost = tune_threshold(y, s, CostMatrix(1.0, 2.0))
        assert thr == np.inf
        assert cost == 0.0

    def test_cost_is_per_sample(self):
        y = np.array([1, 0])
        s = np.array([0.0, 1.0])  # anti-correlated: one error either way
        _, cost = tune_threshold(y, s, CostMatrix(1.0, 1.0))
        assert cost == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            tune_threshold([], [], CostMatrix())
        with pytest.raises(ValueError):
            tune_threshold([1, 0], [0.5], CostMatrix())


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
