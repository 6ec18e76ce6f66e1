"""Tests for scaling and discretisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import StandardScaler, UniformDiscretizer


class TestStandardScaler:
    def test_zero_mean_unit_var(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(500, 3))
        Z = StandardScaler().fit(X).transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_not_nan(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit(X).transform(X)
        assert np.isfinite(Z).all()
        np.testing.assert_allclose(Z[:, 0], 0.0)

    def test_transform_uses_fit_statistics(self):
        scaler = StandardScaler().fit(np.array([[0.0], [2.0]]))  # mean 1, std 1
        np.testing.assert_allclose(scaler.transform([[3.0]]), [[2.0]])

    def test_feature_count_checked(self):
        scaler = StandardScaler().fit(np.zeros((5, 2)) + np.arange(5)[:, None])
        with pytest.raises(ValueError):
            scaler.transform(np.zeros((2, 3)))


class TestUniformDiscretizer:
    def test_ten_minute_buckets(self):
        """The paper buckets age/recency at 10-minute granularity."""
        disc = UniformDiscretizer(bin_width=600.0)
        np.testing.assert_array_equal(
            disc.transform([0, 599, 600, 1800]), [0, 0, 1, 3]
        )

    def test_origin_shift(self):
        disc = UniformDiscretizer(bin_width=10, origin=100)
        np.testing.assert_array_equal(disc.transform([100, 109, 110]), [0, 0, 1])

    def test_below_origin_clamps_to_zero(self):
        disc = UniformDiscretizer(bin_width=10, origin=100)
        assert disc.transform([5])[0] == 0

    def test_max_bins_caps_tail(self):
        disc = UniformDiscretizer(bin_width=1, max_bins=5)
        assert disc.transform([1000])[0] == 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UniformDiscretizer(bin_width=0)
        with pytest.raises(ValueError):
            UniformDiscretizer(bin_width=1, max_bins=0)

    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.1, 1e4),
    )
    @settings(max_examples=50)
    def test_bins_non_negative_and_ordered(self, values, width):
        disc = UniformDiscretizer(bin_width=width)
        bins = disc.transform(values)
        assert (bins >= 0).all()
        order = np.argsort(values)
        assert (np.diff(bins[order]) >= 0).all()
