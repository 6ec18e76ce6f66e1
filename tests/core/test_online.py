"""Tests for online (per-request) feature tracking and admission.

The crucial property: the online tracker must reproduce the offline
vectorised feature matrix *exactly* — if it can be computed left-to-right
with only past state, the offline pipeline is provably causal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LRUCache, simulate
from repro.core.admission import ClassifierAdmission
from repro.core.features import FEATURE_NAMES, PAPER_FEATURE_NAMES, extract_features
from repro.core.history_table import HistoryTable
from repro.core.labeling import one_time_labels
from repro.core.online import OnlineClassifierAdmission, OnlineFeatureTracker
from repro.ml import DecisionTreeClassifier
from repro.trace import WorkloadConfig, generate_trace
from repro.trace.records import ACCESS_DTYPE, CATALOG_DTYPE, Trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadConfig(n_objects=1200, days=2.0, seed=41))


@pytest.fixture(scope="module")
def fitted_model(trace):
    labels = one_time_labels(trace.object_ids, 300)
    fm = extract_features(trace).select(PAPER_FEATURE_NAMES)
    return DecisionTreeClassifier(max_splits=30, rng=0).fit(fm.X, labels), labels


class TestTrackerEquivalence:
    def test_online_matches_offline_exactly(self, trace):
        """Every feature, every access: online == offline."""
        offline = extract_features(trace)
        tracker = OnlineFeatureTracker(trace, feature_names=FEATURE_NAMES)
        for i in range(trace.n_accesses):
            x = tracker.features(i)
            np.testing.assert_allclose(
                x, offline.X[i], err_msg=f"mismatch at access {i}"
            )
            tracker.observe(i)

    def test_subset_ordering(self, trace):
        tracker = OnlineFeatureTracker(trace)  # paper's five
        x = tracker.features(0)
        assert x.shape == (len(PAPER_FEATURE_NAMES),)

    def test_unknown_feature_rejected(self, trace):
        with pytest.raises(ValueError):
            OnlineFeatureTracker(trace, feature_names=("nope",))

    def test_reset_clears_state(self, trace):
        tracker = OnlineFeatureTracker(trace)
        tracker.observe(0)
        tracker.reset()
        assert tracker._last_access == {}
        assert len(tracker._recent) == 0


@pytest.fixture(scope="module")
def edge_trace():
    """Hand-built: every branch of the generated gather, in 40 requests.

    Object 0 was uploaded 100 days before the trace (age and first recency
    clamp at ``_MAX_BUCKET``), object 1 is uploaded *after* its first two
    requests (``d <= 0``), object 2 is requested twice at one timestamp
    (recency ``d == 0``); bursts inside one minute and gaps of several
    minutes exercise the trailing-minute window both ways.
    """
    ts, oids = [], []
    t = 5.0
    for k in range(40):
        t += (0.0, 0.5, 7.0, 45.0, 400.0, 1234.5)[k % 6]
        ts.append(t)
        oids.append((0, 1, 2, 2, 1, 0, 3)[k % 7])
    accesses = np.zeros(len(ts), dtype=ACCESS_DTYPE)
    accesses["timestamp"] = ts
    accesses["object_id"] = oids
    accesses["terminal"] = np.arange(len(ts)) % 2
    catalog = np.zeros(4, dtype=CATALOG_DTYPE)
    catalog["size"] = [1000, 25_000, 300, 4096]
    catalog["photo_type"] = [0, 5, 11, 3]
    catalog["owner_id"] = [0, 1, 1, 2]
    catalog["upload_time"] = [-100 * 86400.0, ts[5] + 1.0, 2.0, -4000.0]
    return Trace(
        accesses,
        catalog,
        owner_active_friends=np.array([3.0, 120.0, 41.0]),
        owner_avg_views=np.array([0.25, 17.5, 4.0]),
        duration=ts[-1] + 1.0,
    )


class TestGeneratedGather:
    """The tracker's ``features_into`` is generated per feature plan."""

    def test_edge_trace_reaches_the_clamp_and_the_floor(self, edge_trace):
        fm = extract_features(edge_trace)
        age = fm.X[:, FEATURE_NAMES.index("photo_age")]
        recency = fm.X[:, FEATURE_NAMES.index("recency")]
        assert age.max() == recency.max() == 90 * 144 - 1      # _MAX_BUCKET
        upload = edge_trace.catalog["upload_time"][edge_trace.object_ids]
        assert (edge_trace.timestamps < upload).any()          # d < 0
        assert (np.diff(edge_trace.timestamps) == 0).any()     # d == 0

    @settings(max_examples=60, deadline=None)
    @given(
        names=st.permutations(FEATURE_NAMES).flatmap(
            lambda order: st.integers(1, len(order)).map(
                lambda k: tuple(order[:k])
            )
        ),
        batch=st.integers(1, 9),
    )
    def test_any_plan_matches_offline_rows_and_the_batch_twin(
        self, edge_trace, names, batch
    ):
        """Every non-empty subset, in every order: the generated function,
        ``extract_features`` and ``features_into_batch`` fill equal rows."""
        n = edge_trace.n_accesses
        offline = extract_features(edge_trace).select(names).X
        columnar = np.empty((n, len(names)))
        twin = OnlineFeatureTracker(edge_trace, feature_names=names)
        for lo in range(0, n, batch):
            hi = min(lo + batch, n)
            twin.features_into_batch(list(range(lo, hi)), columnar[lo:hi])
        assert np.array_equal(columnar, offline)

        tracker = OnlineFeatureTracker(edge_trace, feature_names=names)
        buf = [0.0] * len(names)
        for i in range(n):
            assert tracker.features_into(i, buf) is buf
            assert buf == offline[i].tolist(), (i, names)
            tracker.observe(i)
        assert tracker._last_access == twin._last_access
        assert list(tracker._recent) == list(twin._recent)

    def test_no_plan_interpretation_left_in_the_hot_path(self, trace):
        """One straight-line function per plan: only the configured
        features appear in its source, each exactly once."""
        tracker = OnlineFeatureTracker(trace, ("recency", "photo_size"))
        gather = tracker.source.split("def observe")[0]
        assert gather.count("out[") == 3 and "out[2]" not in gather
        assert "_recent" not in tracker.source and "86400" not in gather


class TestTrailingMinuteWindow:
    """The 60-second window exists only for a plan that reads it."""

    def test_default_plan_keeps_no_window(self, trace, fitted_model):
        # Regression: every request's timestamp used to be appended and —
        # with ``recent_requests`` outside the plan — never pruned, so a
        # long-running node held its whole history in the deque.
        assert "recent_requests" not in PAPER_FEATURE_NAMES
        model, _ = fitted_model
        tracker = OnlineFeatureTracker(trace)
        adm = OnlineClassifierAdmission(model, tracker, 300.0, HistoryTable(64))
        simulate(trace, LRUCache(trace.footprint_bytes // 50), admission=adm)
        assert len(tracker._last_access) > 0     # the replay did observe
        assert len(tracker._recent) == 0

        scalar, columnar = OnlineFeatureTracker(trace), OnlineFeatureTracker(trace)
        rows = np.empty((256, len(PAPER_FEATURE_NAMES)))
        for lo in range(0, trace.n_accesses, 256):
            indices = list(range(lo, min(lo + 256, trace.n_accesses)))
            columnar.features_into_batch(indices, rows)
            for i in indices:
                scalar.observe(i)
        assert len(scalar._recent) == len(columnar._recent) == 0

    def test_window_is_pruned_on_every_read(self, trace):
        names = PAPER_FEATURE_NAMES + ("recent_requests",)
        offline = extract_features(trace).select(names).X
        tracker = OnlineFeatureTracker(trace, feature_names=names)
        ts = trace.timestamps
        buf = [0.0] * len(names)
        for i in range(trace.n_accesses):
            tracker.features_into(i, buf)
            assert buf == offline[i].tolist()
            window = tracker._recent
            assert len(window) == buf[-1]
            assert not window or window[0] >= ts[i] - 60.0
            tracker.observe(i)


class TestOnlineAdmission:
    def test_matches_batch_admission(self, trace, fitted_model):
        """Online and batch classifier admission must produce identical runs."""
        model, _ = fitted_model
        fm = extract_features(trace).select(PAPER_FEATURE_NAMES)
        predictions = model.predict(fm.X)
        m = 300.0
        cap = max(1, trace.footprint_bytes // 50)

        batch = simulate(
            trace,
            LRUCache(cap),
            admission=ClassifierAdmission(predictions, m, HistoryTable(64)),
        )
        online_adm = OnlineClassifierAdmission(
            model, OnlineFeatureTracker(trace), m, HistoryTable(64)
        )
        online = simulate(trace, LRUCache(cap), admission=online_adm)

        assert online.stats.hits == batch.stats.hits
        assert online.stats.files_written == batch.stats.files_written
        assert online.stats.admissions_denied == batch.stats.admissions_denied

    def test_decision_latency_measured(self, trace, fitted_model):
        model, _ = fitted_model
        adm = OnlineClassifierAdmission(
            model, OnlineFeatureTracker(trace), 300.0
        )
        cap = max(1, trace.footprint_bytes // 50)
        simulate(trace, LRUCache(cap), admission=adm)
        assert adm.decisions > 0
        assert adm.mean_decision_seconds > 0
        # Python per-decision cost should still be well under a millisecond.
        assert adm.mean_decision_seconds < 5e-3

    def test_reset(self, trace, fitted_model):
        model, _ = fitted_model
        adm = OnlineClassifierAdmission(
            model, OnlineFeatureTracker(trace), 300.0
        )
        adm.should_admit(0, int(trace.object_ids[0]), 100)
        adm.reset()
        assert adm.decisions == 0
        assert len(adm.history) == 0

    def test_invalid_threshold(self, trace, fitted_model):
        model, _ = fitted_model
        with pytest.raises(ValueError):
            OnlineClassifierAdmission(model, OnlineFeatureTracker(trace), 0.0)


class _RecordingAdmission(OnlineClassifierAdmission):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.verdict_log = []

    def should_admit(self, index, oid, size):
        ok = super().should_admit(index, oid, size)
        self.verdict_log.append(ok)
        return ok


class TestFastPath:
    def test_features_into_matches_features(self, trace):
        """The reused-buffer fast path fills exactly what features() returns."""
        tracker = OnlineFeatureTracker(trace, feature_names=FEATURE_NAMES)
        buf = [0.0] * len(FEATURE_NAMES)
        for i in range(min(trace.n_accesses, 2000)):
            expected = tracker.features(i)
            tracker.features_into(i, buf)
            np.testing.assert_array_equal(
                np.asarray(buf), expected, err_msg=f"mismatch at access {i}"
            )
            tracker.observe(i)

    def test_simulate_bit_identical_fast_vs_reference(self, trace, fitted_model):
        """Fast path on vs off: same admit/deny sequence, same CacheStats."""
        model, _ = fitted_model
        cap = max(1, trace.footprint_bytes // 50)
        runs = {}
        for fast in (True, False):
            adm = _RecordingAdmission(
                model,
                OnlineFeatureTracker(trace),
                300.0,
                HistoryTable(64),
                use_fast_path=fast,
            )
            runs[fast] = (adm, simulate(trace, LRUCache(cap), admission=adm))
        fast_adm, fast_result = runs[True]
        ref_adm, ref_result = runs[False]
        assert fast_adm.verdict_log == ref_adm.verdict_log
        assert fast_result.stats == ref_result.stats

    def test_timing_disabled_records_nothing(self, trace, fitted_model):
        """timing_capacity=0 must skip timing entirely, on both paths."""
        model, _ = fitted_model
        for fast in (True, False):
            adm = OnlineClassifierAdmission(
                model,
                OnlineFeatureTracker(trace),
                300.0,
                timing_capacity=0,
                use_fast_path=fast,
            )
            assert not adm.timing_enabled
            for i in range(50):
                adm.should_admit(i, int(trace.object_ids[i]), 100)
            assert adm.decisions == 50
            assert adm.decision_seconds == 0.0
            assert len(adm.decision_times) == 0

    def test_timed_fast_path_still_identical(self, trace, fitted_model):
        """Timing on/off must not change verdicts."""
        model, _ = fitted_model
        logs = []
        for capacity in (10_000, 0):
            adm = _RecordingAdmission(
                model, OnlineFeatureTracker(trace), 300.0,
                timing_capacity=capacity,
            )
            for i in range(200):
                adm.should_admit(i, int(trace.object_ids[i]), 100)
            logs.append(adm.verdict_log)
        assert logs[0] == logs[1]
