"""Tests for trace composition (interleave / rate-scale)."""

import numpy as np
import pytest

from repro.trace import WorkloadConfig, compute_stats, generate_trace
from repro.trace.mixer import interleave_traces, scale_rate


@pytest.fixture(scope="module")
def pair():
    a = generate_trace(WorkloadConfig(n_objects=1500, days=2.0, seed=101))
    b = generate_trace(WorkloadConfig(n_objects=1000, days=2.0, seed=102))
    return a, b


class TestInterleave:
    def test_counts_add_up(self, pair):
        a, b = pair
        m = interleave_traces(a, b)
        assert m.n_accesses == a.n_accesses + b.n_accesses
        assert m.n_objects == a.n_objects + b.n_objects

    def test_sorted_and_valid(self, pair):
        a, b = pair
        m = interleave_traces(a, b)  # Trace validates in __post_init__
        assert (np.diff(m.timestamps) >= 0).all()

    def test_id_spaces_disjoint(self, pair):
        a, b = pair
        m = interleave_traces(a, b)
        # b's accesses map onto catalog rows at offset a.n_objects.
        b_rows = m.catalog[a.n_objects:]
        np.testing.assert_array_equal(b_rows["size"], b.catalog["size"])

    def test_owner_features_preserved(self, pair):
        a, b = pair
        m = interleave_traces(a, b)
        np.testing.assert_array_equal(
            m.owner_avg_views[: a.owner_avg_views.shape[0]], a.owner_avg_views
        )
        # b's owner ids were offset to its appended table.
        boid = m.catalog["owner_id"][a.n_objects:]
        np.testing.assert_array_equal(
            m.owner_avg_views[boid],
            b.owner_avg_views[b.catalog["owner_id"]],
        )

    def test_statistics_blend(self, pair):
        a, b = pair
        m = interleave_traces(a, b)
        sa, sm = compute_stats(a), compute_stats(m)
        # Both inputs are calibrated to 61.5%: the blend must stay close.
        assert sm.one_time_object_fraction == pytest.approx(
            sa.one_time_object_fraction, abs=0.05
        )

    def test_viral_mask_propagates(self):
        a = generate_trace(
            WorkloadConfig(n_objects=800, days=2.0, seed=103, viral_fraction=0.02)
        )
        b = generate_trace(WorkloadConfig(n_objects=500, days=2.0, seed=104))
        m = interleave_traces(a, b)
        assert m.viral_mask is not None
        assert m.viral_mask.sum() == a.viral_mask.sum()


class TestInterleaveProperties:
    def test_per_object_sequences_preserved(self, pair):
        """Interleaving must not reorder either tenant's own accesses."""
        a, b = pair
        m = interleave_traces(a, b)
        a_positions = m.object_ids < a.n_objects
        np.testing.assert_array_equal(
            m.object_ids[a_positions], a.object_ids
        )
        np.testing.assert_array_equal(
            m.object_ids[~a_positions] - a.n_objects, b.object_ids
        )

    def test_access_counts_additive(self, pair):
        a, b = pair
        m = interleave_traces(a, b)
        np.testing.assert_array_equal(
            m.access_counts(),
            np.concatenate([a.access_counts(), b.access_counts()]),
        )

    def test_simulation_runs_on_composite(self, pair):
        from repro.cache import LRUCache, simulate

        a, b = pair
        m = interleave_traces(a, b)
        result = simulate(m, LRUCache(max(1, m.footprint_bytes // 50)))
        assert result.stats.requests == m.n_accesses


class TestScaleRate:
    def test_duration_and_order(self, pair):
        a, _ = pair
        fast = scale_rate(a, 2.0)
        assert fast.duration == pytest.approx(a.duration / 2)
        assert fast.n_accesses == a.n_accesses
        np.testing.assert_array_equal(fast.object_ids, a.object_ids)

    def test_rate_scaling_compresses_reuse_gaps(self, pair):
        from repro.trace import reuse_interval_stats

        a, _ = pair
        fast = scale_rate(a, 4.0)
        assert reuse_interval_stats(fast).median_seconds == pytest.approx(
            reuse_interval_stats(a).median_seconds / 4
        )

    def test_invalid_factor(self, pair):
        with pytest.raises(ValueError):
            scale_rate(pair[0], 0.0)

    def test_original_untouched(self, pair):
        a, _ = pair
        before = a.timestamps.copy()
        scale_rate(a, 3.0)
        np.testing.assert_array_equal(a.timestamps, before)
