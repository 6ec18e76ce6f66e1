"""DecisionTreeRegressor: exact vs histogram split search.

The ``bins`` option changes which thresholds are *considered*, never how
a fitted tree routes or predicts — these tests pin that contract, since
the online eviction head depends on histogram fits being cheap while
the compiled fast path stays bit-faithful to the tree arrays.

The histogram search scores all features of a node from one ``bincount``
pass; :class:`_PerFeatureReference` keeps the per-feature loop it
replaced as the independent oracle, and fits must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.fastpath import fast_predictor
from repro.ml.tree import DecisionTreeRegressor


class _PerFeatureReference(DecisionTreeRegressor):
    """The per-feature histogram search, kept as the bit-identity oracle.

    One quantile call and one code column per feature, and per node a
    Python loop over features with its own bincounts, cumsums, validity
    mask and argmax; the best feature wins by strict ``>`` in index
    order.  Only the two methods the one-pass search replaced are
    overridden — the best-first growth loop is shared.
    """

    def _quantile_bins(self, X):
        qs = np.linspace(0.0, 1.0, self.bins + 1)[1:-1]
        codes = np.empty(X.shape, dtype=np.int64)
        edges = []
        for j in range(X.shape[1]):
            col = X[:, j]
            e = np.unique(np.quantile(col, qs))
            if e.shape[0] and e[-1] >= col.max():
                e = e[:-1]
            edges.append(e)
            codes[:, j] = np.searchsorted(e, col, side="left")
        return codes, edges

    def _best_split_binned(self, codes, edges, wy, w, indices):
        n = indices.shape[0]
        unweighted = w is None
        w_node = None if unweighted else w[indices]
        wy_node = wy[indices]
        total_w = float(n) if unweighted else float(w_node.sum())
        total_wy = float(wy_node.sum())
        base = total_wy * total_wy / total_w
        min_leaf = self.min_samples_leaf
        sub = codes[indices]

        best = None
        for j in range(sub.shape[1]):
            e = edges[j]
            nb = e.shape[0] + 1
            if nb < 2:
                continue
            c = sub[:, j]
            cn = np.cumsum(np.bincount(c, minlength=nb))[:-1]
            cwy = np.cumsum(np.bincount(c, weights=wy_node, minlength=nb))[:-1]
            cw = (
                cn.astype(np.float64)
                if unweighted
                else np.cumsum(np.bincount(c, weights=w_node, minlength=nb))[:-1]
            )
            ok = (cn >= min_leaf) & (n - cn >= min_leaf) & (cw > 0)
            rw = total_w - cw
            ok &= rw > 0
            if not ok.any():
                continue
            gain = cwy[ok] ** 2 / cw[ok] + (total_wy - cwy[ok]) ** 2 / rw[ok] - base
            pos = int(np.argmax(gain))
            g = float(gain[pos])
            if g > 0 and (best is None or g > best[0]):
                best = (g, int(j), float(e[np.nonzero(ok)[0][pos]]))
        return best


#: Column shapes the histogram search must survive: continuous, constant,
#: a handful of repeated values, a twin of column 0 (gain ties across
#: features) and all-but-one row at the maximum (every quantile equals the
#: max, so the feature keeps no edge although it is not constant).
_COLUMN_KINDS = ("normal", "constant", "duplicated", "twin", "no_edge")


def _matrix(kinds, rng, n):
    cols: list[np.ndarray] = []
    for kind in kinds:
        if kind == "normal":
            col = rng.normal(size=n)
        elif kind == "constant":
            col = np.full(n, 7.0)
        elif kind == "duplicated":
            col = rng.integers(0, 4, size=n).astype(np.float64)
        elif kind == "twin" and cols:
            col = cols[0].copy()
        else:
            col = np.full(n, 5.0)
            col[rng.integers(n)] = -1.0
        cols.append(col)
    return np.column_stack(cols)


def _dataset(n=4_000, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = 2.0 * X[:, 0] + np.sin(X[:, 1]) + 0.1 * rng.normal(size=n)
    return X, y


class TestExactMode:
    def test_fit_reduces_error_over_mean(self):
        X, y = _dataset()
        model = DecisionTreeRegressor(max_splits=32).fit(X, y)
        sse = float(np.sum((model.predict(X) - y) ** 2))
        sse_mean = float(np.sum((y - y.mean()) ** 2))
        assert sse < 0.25 * sse_mean

    def test_default_stays_exact(self):
        assert DecisionTreeRegressor().bins is None

    @pytest.mark.parametrize("bins", [None, 16])
    def test_constant_target_stays_a_root_and_depth_one_is_one_split(self, bins):
        X, y = _dataset(n=400)
        flat = DecisionTreeRegressor(bins=bins).fit(X, np.full(len(y), 7.0))
        assert flat.node_count_ == 1 and flat.predict_one(X[0]) == 7.0
        stump = DecisionTreeRegressor(max_depth=1, bins=bins).fit(X, y)
        assert (stump.n_splits_, stump.get_depth(), int((stump.feature_ < 0).sum())) == (1, 1, 2)
        assert len(np.unique(stump.predict(X))) == 2


class TestBinnedMode:
    def test_binned_quality_matches_exact_closely(self):
        X, y = _dataset()
        exact = DecisionTreeRegressor(max_splits=64).fit(X, y)
        binned = DecisionTreeRegressor(max_splits=64, bins=64).fit(X, y)
        mae_exact = float(np.mean(np.abs(exact.predict(X) - y)))
        mae_binned = float(np.mean(np.abs(binned.predict(X) - y)))
        # Quantile thresholds coarsen the search, not the model class:
        # a few percent of extra error is the whole price.
        assert mae_binned <= 1.25 * mae_exact + 1e-9

    def test_thresholds_stay_inside_feature_range(self):
        # Binned thresholds come from the quantile edge grid, so every
        # split must sit strictly inside its feature's observed range —
        # a threshold at or past the max would send all rows left.
        X, y = _dataset(n=1_000)
        model = DecisionTreeRegressor(max_splits=16, bins=16).fit(X, y)
        split_nodes = [n for n in range(model.node_count_)
                       if model.feature_[n] >= 0]
        assert split_nodes
        for node in split_nodes:
            col = X[:, int(model.feature_[node])]
            assert col.min() <= model.threshold_[node] < col.max()

    def test_min_samples_leaf_respected_by_histogram_splits(self):
        X, y = _dataset(n=2_000, seed=3)
        model = DecisionTreeRegressor(
            max_splits=32, min_samples_leaf=25, bins=32
        ).fit(X, y)
        # Route every training row and count leaf occupancy.
        leaf = np.zeros(len(X), dtype=np.int64)
        for i in range(len(X)):
            node = 0
            while model.feature_[node] != -1:
                f = int(model.feature_[node])
                node = int(
                    model.children_left_[node]
                    if X[i, f] <= model.threshold_[node]
                    else model.children_right_[node]
                )
            leaf[i] = node
        counts = np.bincount(leaf, minlength=model.node_count_)
        is_leaf = model.feature_ == -1
        assert (counts[is_leaf] >= 25).all()

    def test_weighted_binned_fit(self):
        X, y = _dataset(n=1_000)
        w = np.random.default_rng(1).uniform(0.5, 2.0, size=len(X))
        model = DecisionTreeRegressor(max_splits=16, bins=32).fit(
            X, y, sample_weight=w
        )
        assert np.isfinite(model.predict(X)).all()

    def test_constant_feature_never_split(self):
        X, y = _dataset(n=500)
        X[:, 3] = 7.0
        model = DecisionTreeRegressor(max_splits=16, bins=16).fit(X, y)
        assert 3 not in set(model.feature_[model.feature_ >= 0].tolist())

    def test_invalid_bins_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            DecisionTreeRegressor(bins=1)

    @given(bins=st.integers(2, 64), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_compiled_fastpath_matches_binned_tree(self, bins, seed):
        """fastpath parity is bin-agnostic: the compiled walker must
        reproduce predict() exactly whatever threshold grid fit used."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 3))
        y = X[:, 0] + rng.normal(0, 0.2, size=300)
        model = DecisionTreeRegressor(max_splits=12, bins=bins).fit(X, y)
        cp = fast_predictor(model)
        expected = model.predict(X)
        assert np.array_equal(np.asarray([cp.predict_one(tuple(r)) for r in X]),
                              expected)
        assert np.array_equal(cp.predict(X), expected)


class TestOnePassSearchIsBitIdentical:
    """One histogram pass per node == the per-feature loop, bit for bit."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(3, 240),
        bins=st.integers(2, 64),
        min_samples_leaf=st.integers(1, 25),
        kinds=st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=5),
        weights=st.sampled_from(["unit", "non_unit", "some_zero"]),
        integer_targets=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_tree_as_per_feature_reference(
        self, seed, n, bins, min_samples_leaf, kinds, weights, integer_targets
    ):
        rng = np.random.default_rng(seed)
        X = _matrix(kinds, rng, n)
        y = X[:, 0] + rng.normal(size=n)
        if integer_targets:  # exact sums: gain plateaus and ties
            y = np.round(y)
        w = None
        if weights != "unit":
            w = rng.uniform(0.25, 4.0, size=n)
            if weights == "some_zero":
                w[rng.random(n) < 0.3] = 0.0
                w[rng.integers(n)] = 1.0  # the total must stay positive
        params = dict(max_splits=12, min_samples_leaf=min_samples_leaf, bins=bins)
        new = DecisionTreeRegressor(**params).fit(X, y, sample_weight=w)
        ref = _PerFeatureReference(**params).fit(X, y, sample_weight=w)
        for name in ("feature_", "threshold_", "children_left_",
                     "children_right_", "value_"):
            a, b = getattr(new, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 200),
           bins=st.integers(2, 64))
    @settings(max_examples=50, deadline=None)
    def test_bin_grid_matches_per_column_quantiles(self, seed, n, bins):
        rng = np.random.default_rng(seed)
        X = _matrix(_COLUMN_KINDS, rng, n)
        qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
        batched = np.quantile(X, qs, axis=0)
        for j in range(X.shape[1]):
            assert batched[:, j].tobytes() == np.quantile(X[:, j], qs).tobytes()
        codes, edges = DecisionTreeRegressor(bins=bins)._quantile_bins(X)
        ref_codes, ref_edges = _PerFeatureReference(bins=bins)._quantile_bins(X)
        assert edges.shape == (X.shape[1], bins)
        for j, e in enumerate(ref_edges):
            assert edges[j, : len(e)].tobytes() == e.tobytes()
            assert np.isnan(edges[j, len(e):]).all()
            assert np.array_equal(codes[:, j] - j * bins, ref_codes[:, j])

    def test_feature_without_a_surviving_edge_is_never_split(self):
        # Not constant, yet every quantile equals the max, which is
        # dropped: the column has no threshold to offer.
        X, y = _dataset(n=500)
        X[:, 2] = 5.0
        X[17, 2] = -1.0
        model = DecisionTreeRegressor(max_splits=16, bins=16).fit(X, y)
        assert 2 not in set(model.feature_[model.feature_ >= 0].tolist())
