"""Tests for delayed-label admission monitoring."""

import numpy as np
import pytest

from repro.core.labeling import ONE_TIME, one_time_labels
from repro.core.monitoring import evaluate_admission_decisions


class TestEvaluateDecisions:
    def _stream(self, seed=0, n=30_000, n_objects=3_000):
        rng = np.random.default_rng(seed)
        return rng.zipf(1.4, n) % n_objects

    def test_perfect_decisions_score_one(self):
        ids = self._stream()
        m = 500.0
        labels = one_time_labels(ids, m) == ONE_TIME
        q = evaluate_admission_decisions(ids, labels, m, window_size=5000)
        scored = q.n_scored > 0
        np.testing.assert_allclose(q.accuracy[scored], 1.0)
        np.testing.assert_allclose(q.precision[scored], 1.0)
        np.testing.assert_allclose(q.recall[scored], 1.0)

    def test_inverted_decisions_score_zero_accuracy(self):
        ids = self._stream(seed=1)
        m = 500.0
        labels = one_time_labels(ids, m) == ONE_TIME
        q = evaluate_admission_decisions(ids, ~labels, m, window_size=5000)
        scored = q.n_scored > 0
        assert (q.accuracy[scored] == 0.0).all()

    def test_immature_tail_excluded(self):
        ids = self._stream(seed=2, n=1000)
        m = 600.0
        q = evaluate_admission_decisions(
            ids, np.zeros(1000, dtype=bool), m, window_size=250
        )
        # Only the first 400 positions mature (1000 − 600).
        assert q.n_scored.sum() == 400
        assert q.n_scored[-1] == 0  # final windows entirely immature

    def test_windowing(self):
        ids = self._stream(seed=3, n=20_000)
        q = evaluate_admission_decisions(
            ids, np.zeros(20_000, dtype=bool), 100.0, window_size=4_000
        )
        assert q.n_windows == 5
        assert q.window_size == 4_000

    def test_worst_window_finds_degradation(self):
        """A decision stream that goes bad mid-way must be localised."""
        ids = self._stream(seed=4, n=40_000)
        m = 300.0
        labels = one_time_labels(ids, m) == ONE_TIME
        decisions = labels.copy()
        # Corrupt verdicts in the third window only.
        decisions[20_000:30_000] = ~decisions[20_000:30_000]
        q = evaluate_admission_decisions(ids, decisions, m, window_size=10_000)
        assert q.worst_window() == 2

    def test_all_admit_recall_zero(self):
        ids = self._stream(seed=5)
        q = evaluate_admission_decisions(
            ids, np.zeros(ids.shape[0], dtype=bool), 200.0
        )
        scored = q.n_scored > 0
        assert (q.recall[scored] == 0.0).all()
        assert np.isnan(q.precision[scored]).all()  # no positive verdicts

    def test_invalid(self):
        with pytest.raises(ValueError):
            evaluate_admission_decisions(np.zeros(3), np.zeros(4, bool), 10)
        with pytest.raises(ValueError):
            evaluate_admission_decisions(np.zeros(3), np.zeros(3, bool), 0)
        with pytest.raises(ValueError):
            evaluate_admission_decisions(
                np.zeros(3), np.zeros(3, bool), 10, window_size=0
            )

    @pytest.mark.parametrize("m", [np.inf, np.nan])
    def test_non_finite_m_rejected_like_the_drift_monitor(self, m):
        with pytest.raises(ValueError, match="positive and finite"):
            evaluate_admission_decisions(np.zeros(3), np.zeros(3, bool), m)
