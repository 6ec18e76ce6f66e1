"""Tests for the §3.2 feature extraction pipeline."""

import numpy as np
import pytest

from repro.core.features import (
    FEATURE_NAMES,
    PAPER_FEATURE_NAMES,
    extract_features,
)
from repro.ml.base import check_array
from repro.trace import WorkloadConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadConfig(n_objects=3000, seed=5))


@pytest.fixture(scope="module")
def fm(trace):
    return extract_features(trace)


class TestShapeAndNames:
    def test_matrix_shape(self, trace, fm):
        assert fm.X.shape == (trace.n_accesses, len(FEATURE_NAMES))
        assert fm.names == FEATURE_NAMES

    def test_paper_subset_is_subset(self):
        assert set(PAPER_FEATURE_NAMES) <= set(FEATURE_NAMES)
        assert len(PAPER_FEATURE_NAMES) == 5  # §3.2.2's final choice

    def test_all_finite(self, fm):
        assert np.isfinite(fm.X).all()

    def test_column_accessor(self, fm):
        col = fm.column("access_hour")
        assert col.shape[0] == fm.X.shape[0]
        with pytest.raises(KeyError):
            fm.column("nope")

    def test_select_projects_columns(self, fm):
        sub = fm.select(PAPER_FEATURE_NAMES)
        assert sub.X.shape[1] == 5
        np.testing.assert_array_equal(
            sub.column("photo_type"), fm.column("photo_type")
        )

    def test_selection_is_what_fit_and_predict_read(self, fm):
        """One copy per selection: ``check_array`` (every fit's and
        predict's first step) hands the selected matrix back as is."""
        sub = fm.select(PAPER_FEATURE_NAMES)
        assert sub.X.flags["C_CONTIGUOUS"]
        assert check_array(sub.X) is sub.X


class TestSemantics:
    def test_access_hour_range(self, fm):
        hours = fm.column("access_hour")
        assert hours.min() >= 0 and hours.max() <= 23
        assert np.allclose(hours, hours.astype(int))

    def test_photo_type_range(self, fm):
        t = fm.column("photo_type")
        assert t.min() >= 0 and t.max() <= 11

    def test_terminal_binary(self, fm):
        assert set(np.unique(fm.column("terminal"))) <= {0.0, 1.0}

    def test_age_and_recency_in_ten_minute_buckets(self, fm):
        for name in ("photo_age", "recency"):
            col = fm.column(name)
            assert (col >= 0).all()
            assert np.allclose(col, col.astype(int))

    def test_first_access_recency_equals_age(self, trace, fm):
        """For an object's first access, recency falls back to photo age."""
        oid = trace.object_ids
        first_mask = np.zeros(trace.n_accesses, dtype=bool)
        seen = set()
        for i, o in enumerate(oid.tolist()):
            if o not in seen:
                first_mask[i] = True
                seen.add(o)
        np.testing.assert_array_equal(
            fm.column("recency")[first_mask], fm.column("photo_age")[first_mask]
        )

    def test_recency_uses_previous_access(self, trace, fm):
        """For re-accesses, recency bucket ≙ gap to the previous access."""
        oid = trace.object_ids
        ts = trace.timestamps
        last_seen: dict[int, float] = {}
        recency = fm.column("recency")
        checked = 0
        for i, o in enumerate(oid.tolist()):
            if o in last_seen:
                expected = int((ts[i] - last_seen[o]) // 600)
                assert recency[i] == min(expected, 90 * 144 - 1)
                checked += 1
                if checked > 500:
                    break
            last_seen[o] = ts[i]
        assert checked > 100

    def test_recent_requests_counts_trailing_minute(self, trace, fm):
        ts = trace.timestamps
        rr = fm.column("recent_requests")
        # Check a few random positions against a direct count.
        rng = np.random.default_rng(0)
        for i in rng.integers(0, trace.n_accesses, 50):
            expected = int(np.sum((ts >= ts[i] - 60.0) & (ts < ts[i]))) + int(
                np.sum(ts[:i] == ts[i])
            )
            # Allow for ties at exactly t-60 / equal timestamps ordering.
            assert abs(rr[i] - expected) <= np.sum(ts == ts[i])

    def test_owner_features_match_catalog(self, trace, fm):
        owner = trace.catalog["owner_id"][trace.object_ids]
        np.testing.assert_allclose(
            fm.column("owner_avg_views"), trace.owner_avg_views[owner]
        )
        np.testing.assert_allclose(
            fm.column("owner_active_friends"),
            trace.owner_active_friends[owner],
        )

    def test_photo_size_matches_catalog(self, trace, fm):
        np.testing.assert_allclose(
            fm.column("photo_size"),
            trace.catalog["size"][trace.object_ids],
        )

    def test_no_future_leakage_columns(self):
        """No feature may encode future information by construction."""
        future_words = ("next", "future", "label", "one_time")
        for name in FEATURE_NAMES:
            assert not any(w in name for w in future_words)
