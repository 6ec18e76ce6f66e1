"""Tests for owners, catalog, popularity models, sampler, stats, and IO."""

import numpy as np
import pytest

from repro.trace import (
    PHOTO_TYPES,
    DiurnalModel,
    WorkloadConfig,
    compute_stats,
    generate_owners,
    generate_trace,
    sample_objects,
)
from repro.trace.catalog import generate_catalog, type_request_share_array
from repro.trace.io import load_trace, save_trace
from repro.trace.popularity import DAY, age_decay


class TestOwners:
    def test_counts_and_positivity(self):
        o = generate_owners(1000, np.random.default_rng(0))
        assert o.n_owners == 1000
        assert (o.popularity > 0).all()
        assert (o.avg_views > 0).all()
        assert (o.active_friends >= 0).all()

    def test_popularity_mean_near_one(self):
        o = generate_owners(50_000, np.random.default_rng(1))
        assert o.popularity.mean() == pytest.approx(1.0, rel=0.1)

    def test_views_correlate_with_popularity(self):
        o = generate_owners(20_000, np.random.default_rng(2))
        r = np.corrcoef(np.log(o.popularity), np.log(o.avg_views))[0, 1]
        assert r > 0.9

    def test_friends_correlate_with_popularity(self):
        o = generate_owners(20_000, np.random.default_rng(3))
        r = np.corrcoef(o.popularity, o.active_friends)[0, 1]
        assert r > 0.5

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_owners(0, rng)
        with pytest.raises(ValueError):
            generate_owners(10, rng, sigma=0)


class TestCatalog:
    @pytest.fixture(scope="class")
    def catalog(self):
        rng = np.random.default_rng(4)
        owners = generate_owners(500, rng)
        return generate_catalog(20_000, owners, 9 * DAY, rng)

    def test_twelve_types(self):
        assert len(PHOTO_TYPES) == 12
        assert len(set(PHOTO_TYPES)) == 12

    def test_request_shares_sum_to_one(self):
        assert type_request_share_array().sum() == pytest.approx(1.0)

    def test_type_range(self, catalog):
        assert catalog["photo_type"].min() >= 0
        assert catalog["photo_type"].max() < 12

    def test_sizes_scale_with_resolution(self, catalog):
        # 'o' (original, type indices 8/9) photos are larger than 'a'
        # thumbnails (indices 0/1) on average.
        a_mask = catalog["photo_type"] <= 1
        o_mask = (catalog["photo_type"] == 8) | (catalog["photo_type"] == 9)
        assert catalog["size"][o_mask].mean() > 5 * catalog["size"][a_mask].mean()

    def test_png_larger_than_jpg(self, catalog):
        # Same resolution, png (even index) vs jpg (odd index).
        png = catalog["photo_type"] % 2 == 0
        l_png = catalog["size"][(catalog["photo_type"] == 10)]
        l_jpg = catalog["size"][(catalog["photo_type"] == 11)]
        if l_png.shape[0] > 30 and l_jpg.shape[0] > 30:
            assert l_png.mean() > l_jpg.mean()
        assert png.any()

    def test_pre_trace_fraction(self, catalog):
        pre = (catalog["upload_time"] < 0).mean()
        assert pre == pytest.approx(0.35, abs=0.03)

    def test_invalid_params(self):
        rng = np.random.default_rng(0)
        owners = generate_owners(10, rng)
        with pytest.raises(ValueError):
            generate_catalog(0, owners, DAY, rng)
        with pytest.raises(ValueError):
            generate_catalog(10, owners, DAY, rng, pre_trace_fraction=2.0)


class TestDiurnal:
    def test_rate_peaks_at_peak_hour(self):
        m = DiurnalModel(peak_hour=20.0, amplitude=0.75)
        hours = np.arange(24) * 3600.0
        rates = m.rate(hours)
        assert np.argmax(rates) == 20
        assert rates.min() > 0

    def test_sampling_matches_density(self):
        m = DiurnalModel()
        rng = np.random.default_rng(5)
        s = m.sample_time_of_day(200_000, rng)
        assert ((s >= 0) & (s < DAY)).all()
        hours = (s / 3600).astype(int)
        hist = np.bincount(hours, minlength=24) / s.shape[0]
        assert np.argmax(hist) in (19, 20, 21)
        # Peak-to-trough ratio approximates (1+A)/(1−A) = 7 for A=0.75.
        assert hist.max() / hist.min() > 3.0

    def test_full_flatness_is_uniform(self):
        m = DiurnalModel()
        rng = np.random.default_rng(6)
        s = m.sample_time_of_day(100_000, rng, flatness=1.0)
        hist = np.bincount((s / 3600).astype(int), minlength=24)
        assert hist.max() / hist.min() < 1.2

    def test_zero_samples(self):
        assert DiurnalModel().sample_time_of_day(0, np.random.default_rng(0)).shape == (0,)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DiurnalModel(peak_hour=24.0)
        with pytest.raises(ValueError):
            DiurnalModel(amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalModel().sample_time_of_day(5, np.random.default_rng(0), flatness=2.0)


class TestAgeDecay:
    def test_decreasing(self):
        ages = np.array([0.0, DAY, 7 * DAY, 30 * DAY])
        d = age_decay(ages)
        assert (np.diff(d) < 0).all()

    def test_half_life_semantics(self):
        assert age_decay(7 * DAY, half_life=7 * DAY) == pytest.approx(0.5)

    def test_fresh_photo_full_popularity(self):
        assert age_decay(0.0) == pytest.approx(1.0)

    def test_negative_age_clamped(self):
        assert age_decay(-100.0) == pytest.approx(1.0)

    def test_invalid_half_life(self):
        with pytest.raises(ValueError):
            age_decay(1.0, half_life=0)


class TestSampler:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(WorkloadConfig(n_objects=20_000, seed=9))

    def test_sample_rate_approximate(self, trace):
        s = sample_objects(trace, 0.1, rng=0)
        assert s.n_objects == pytest.approx(2000, rel=0.15)

    def test_access_counts_preserved(self, trace):
        """Object-level sampling keeps each kept object's full history."""
        s = sample_objects(trace, 0.2, rng=1)
        st_full = compute_stats(trace)
        st_samp = compute_stats(s)
        assert st_samp.one_time_object_fraction == pytest.approx(
            st_full.one_time_object_fraction, abs=0.03
        )
        assert st_samp.mean_accesses_per_object == pytest.approx(
            st_full.mean_accesses_per_object, rel=0.15
        )

    def test_ids_redensified(self, trace):
        s = sample_objects(trace, 0.1, rng=2)
        assert s.object_ids.max() < s.n_objects
        assert (np.diff(s.timestamps) >= 0).all()

    def test_full_rate_keeps_everything(self, trace):
        s = sample_objects(trace, 1.0, rng=3)
        assert s.n_accesses == trace.n_accesses

    def test_invalid_rate(self, trace):
        with pytest.raises(ValueError):
            sample_objects(trace, 0.0)
        with pytest.raises(ValueError):
            sample_objects(trace, 1.5)

    def test_empty_sample_raises(self):
        tiny = generate_trace(WorkloadConfig(n_objects=5, seed=0))
        with pytest.raises(ValueError):
            sample_objects(tiny, 1e-9, rng=0)


class TestIO:
    def test_npz_roundtrip(self, tmp_path, tiny_trace):
        p = tmp_path / "trace.npz"
        save_trace(tiny_trace, p)
        loaded = load_trace(p)
        np.testing.assert_array_equal(loaded.accesses, tiny_trace.accesses)
        np.testing.assert_array_equal(loaded.catalog, tiny_trace.catalog)
        assert loaded.duration == tiny_trace.duration

    def test_viral_mask_roundtrip(self, tmp_path):
        tr = generate_trace(
            WorkloadConfig(n_objects=800, seed=6, viral_fraction=0.02)
        )
        p = tmp_path / "viral.npz"
        save_trace(tr, p)
        loaded = load_trace(p)
        np.testing.assert_array_equal(loaded.viral_mask, tr.viral_mask)
