"""Tests for the daily cost-sensitive training loop (§4.4)."""

import numpy as np
import pytest

from repro.core.features import extract_features
from repro.core.labeling import one_time_labels
from repro.core.training import DAY, sample_per_minute, train_daily_classifier
from repro.trace import WorkloadConfig, generate_trace


@pytest.fixture(scope="module")
def setup():
    trace = generate_trace(WorkloadConfig(n_objects=6000, days=4.0, seed=13))
    features = extract_features(trace)
    labels = one_time_labels(trace.object_ids, m_threshold=500)
    return trace, features, labels


class TestSamplePerMinute:
    def test_limit_enforced(self):
        rng = np.random.default_rng(0)
        ts = np.sort(rng.uniform(0, 600, 5000))  # 10 minutes
        idx = sample_per_minute(ts, 100, rng)
        minutes = (ts[idx] // 60).astype(int)
        counts = np.bincount(minutes)
        assert counts.max() <= 100

    def test_sparse_minutes_kept_whole(self):
        rng = np.random.default_rng(1)
        ts = np.arange(0.0, 300.0, 10.0)  # 6 per minute
        idx = sample_per_minute(ts, 100, rng)
        assert idx.shape[0] == ts.shape[0]

    def test_indices_sorted_and_unique(self):
        rng = np.random.default_rng(2)
        ts = np.sort(rng.uniform(0, 1200, 3000))
        idx = sample_per_minute(ts, 50, rng)
        assert (np.diff(idx) > 0).all()

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            sample_per_minute(np.array([1.0]), 0, np.random.default_rng(0))


class TestDailyTraining:
    def test_predictions_cover_trace(self, setup):
        trace, features, labels = setup
        r = train_daily_classifier(trace, features, labels, rng=0)
        assert r.predictions.shape == (trace.n_accesses,)
        assert set(np.unique(r.predictions)) <= {0, 1}

    def test_first_segment_admits_everything(self, setup):
        """Before the first 05:00 retrain there is no model: predict 0."""
        trace, features, labels = setup
        r = train_daily_classifier(trace, features, labels, rng=0)
        ts = trace.timestamps
        first_boundary = 5.0 * 3600.0
        assert (r.predictions[ts < first_boundary] == 0).all()
        assert r.daily_metrics[0]["trained"] is False

    def test_segments_match_day_count(self, setup):
        trace, features, labels = setup
        r = train_daily_classifier(trace, features, labels, rng=0)
        # 4-day trace, boundaries at 05:00 each day → 5 segments.
        assert len(r.daily_metrics) == 5
        assert len(r.models) == 5

    def test_later_segments_trained_and_predictive(self, setup):
        trace, features, labels = setup
        r = train_daily_classifier(trace, features, labels, rng=0)
        trained = [m for m in r.daily_metrics if m["trained"]]
        assert len(trained) >= 3
        # Precision must clearly beat the base rate on at least one day.
        assert max(m["precision"] for m in trained) > labels.mean()

    def test_overall_metrics_aggregate(self, setup):
        trace, features, labels = setup
        r = train_daily_classifier(trace, features, labels, rng=0)
        o = r.overall
        assert set(o) == {"precision", "recall", "accuracy"}
        assert 0 <= o["accuracy"] <= 1

    def test_static_model_reuses_first_model(self, setup):
        trace, features, labels = setup
        r = train_daily_classifier(trace, features, labels, static_model=True, rng=0)
        trained_models = [m for m in r.models if m is not None]
        assert len(trained_models) >= 2
        assert all(m is trained_models[0] for m in trained_models)

    def test_higher_cost_v_raises_precision(self, setup):
        trace, features, labels = setup
        lo = train_daily_classifier(trace, features, labels, cost_v=1.0, rng=0)
        hi = train_daily_classifier(trace, features, labels, cost_v=6.0, rng=0)
        assert hi.overall["precision"] >= lo.overall["precision"] - 0.02
        assert hi.overall["recall"] <= lo.overall["recall"] + 0.02

    def test_deterministic_given_rng(self, setup):
        trace, features, labels = setup
        a = train_daily_classifier(trace, features, labels, rng=7)
        b = train_daily_classifier(trace, features, labels, rng=7)
        np.testing.assert_array_equal(a.predictions, b.predictions)

    def test_shorter_retrain_period_more_segments(self, setup):
        trace, features, labels = setup
        daily = train_daily_classifier(trace, features, labels, rng=0)
        fast = train_daily_classifier(
            trace, features, labels, retrain_period=DAY / 4,
            train_window=DAY, rng=0,
        )
        assert len(fast.daily_metrics) > len(daily.daily_metrics)
        # More frequent refresh tracks drift at least as well.
        assert fast.overall["accuracy"] >= daily.overall["accuracy"] - 0.02

    def test_custom_train_window(self, setup):
        trace, features, labels = setup
        wide = train_daily_classifier(
            trace, features, labels, train_window=2 * DAY, rng=0
        )
        assert wide.predictions.shape[0] == trace.n_accesses

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cost_v=0.0),
            dict(retrain_period=0.0),
            dict(train_window=0.0),
        ],
    )
    def test_invalid_params(self, setup, kwargs):
        trace, features, labels = setup
        with pytest.raises(ValueError):
            train_daily_classifier(trace, features, labels, **kwargs)

    def test_feature_importances_aggregate(self, setup):
        trace, features, labels = setup
        r = train_daily_classifier(trace, features, labels, rng=0)
        imp = r.feature_importances()
        assert set(imp) == set(r.feature_names)
        assert sum(imp.values()) == pytest.approx(1.0, abs=0.01)
        # Sorted descending.
        vals = list(imp.values())
        assert vals == sorted(vals, reverse=True)

    def test_feature_importances_empty_when_untrainable(self, setup):
        """Single-class labels train no segment: no importances to average."""
        trace, features, labels = setup
        r = train_daily_classifier(
            trace, features, np.zeros_like(labels), rng=0
        )
        assert not any(m["trained"] for m in r.daily_metrics)
        assert r.feature_importances() == {}

    def test_mismatched_labels_rejected(self, setup):
        trace, features, labels = setup
        with pytest.raises(ValueError):
            train_daily_classifier(trace, features, labels[:-1])
