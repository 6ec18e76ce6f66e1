"""Tests for repro.ml.metrics — P/R/acc, ROC/AUC."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml.metrics import (
    accuracy_score,
    auc,
    classification_report,
    precision_score,
    recall_score,
    roc_auc_score,
    roc_curve,
)


class TestPrecisionRecall:
    def test_textbook_values(self):
        y_true = [1, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 1, 0]
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert accuracy_score(y_true, y_pred) == pytest.approx(3 / 5)

    def test_no_positive_predictions_gives_zero_precision(self):
        assert precision_score([1, 0], [0, 0]) == 0.0

    def test_no_positive_truth_gives_zero_recall(self):
        assert recall_score([0, 0], [1, 0]) == 0.0

    def test_custom_pos_label(self):
        y_true = ["a", "b", "a"]
        y_pred = ["a", "a", "a"]
        assert recall_score(y_true, y_pred, pos_label="a") == 1.0
        assert precision_score(y_true, y_pred, pos_label="a") == pytest.approx(2 / 3)

    def test_rejects_mismatched_lengths(self):
        for fn in (precision_score, recall_score, accuracy_score):
            with pytest.raises(ValueError, match="equal length"):
                fn([1, 0], [1])

    def test_rejects_empty(self):
        for fn in (precision_score, recall_score, accuracy_score):
            with pytest.raises(ValueError, match="empty"):
                fn([], [])

    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=60),
        st.lists(st.integers(0, 1), min_size=2, max_size=60),
    )
    def test_metrics_bounded(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        for fn in (precision_score, recall_score, accuracy_score):
            assert 0.0 <= fn(a, b) <= 1.0

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    def test_perfect_prediction_scores_one(self, y):
        assert accuracy_score(y, y) == 1.0
        if any(v == 1 for v in y):
            assert precision_score(y, y) == 1.0
            assert recall_score(y, y) == 1.0


class TestROC:
    def test_perfect_separation_auc_one(self):
        y = [0, 0, 1, 1]
        s = [0.1, 0.2, 0.8, 0.9]
        assert roc_auc_score(y, s) == pytest.approx(1.0)

    def test_inverted_scores_auc_zero(self):
        y = [0, 0, 1, 1]
        s = [0.9, 0.8, 0.2, 0.1]
        assert roc_auc_score(y, s) == pytest.approx(0.0)

    def test_random_scores_auc_half(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 2, 8000)
        s = rng.random(8000)
        assert roc_auc_score(y, s) == pytest.approx(0.5, abs=0.03)

    def test_curve_endpoints(self):
        y = [0, 1, 0, 1, 1]
        s = [0.2, 0.3, 0.5, 0.7, 0.9]
        fpr, tpr, thr = roc_curve(y, s)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert thr[0] == np.inf

    def test_curve_monotone(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 200)
        s = rng.random(200)
        fpr, tpr, _ = roc_curve(y, s)
        assert (np.diff(fpr) >= 0).all()
        assert (np.diff(tpr) >= 0).all()

    def test_auc_equals_rank_statistic(self):
        """AUC must equal P(score_pos > score_neg) + 0.5 P(tie)."""
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 300)
        y[:5] = [0, 1, 0, 1, 1]  # both classes guaranteed
        s = rng.integers(0, 10, 300).astype(float)  # many ties
        pos = s[y == 1]
        neg = s[y == 0]
        gt = (pos[:, None] > neg[None, :]).mean()
        ties = (pos[:, None] == neg[None, :]).mean()
        assert roc_auc_score(y, s) == pytest.approx(gt + 0.5 * ties)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_curve([1, 1], [0.5, 0.6])

    def test_auc_trapezoid(self):
        assert auc([0, 1], [0, 1]) == pytest.approx(0.5)
        assert auc([0, 0.5, 1], [1, 1, 1]) == pytest.approx(1.0)

    def test_auc_rejects_nonmonotonic_x(self):
        with pytest.raises(ValueError):
            auc([0, 1, 0.5], [0, 1, 0])


class TestClassificationReport:
    def test_contains_table1_metrics(self):
        y = [0, 1, 1, 0]
        p = [0, 1, 0, 0]
        s = [0.1, 0.9, 0.4, 0.2]
        rep = classification_report(y, p, s)
        assert set(rep) == {"precision", "recall", "accuracy", "auc"}
        assert rep["precision"] == 1.0
        assert rep["recall"] == 0.5

    def test_without_scores_no_auc(self):
        rep = classification_report([0, 1], [0, 1])
        assert "auc" not in rep
