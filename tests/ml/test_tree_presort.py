"""One sort per fit, against the per-node and per-quantile references.

The grower sorts each feature once per fit and hands every node its rows
in each feature's order, split from its parent's by stable partition.  The
reference here is the scan that sorts at every node instead: a stable
argsort of the node's own rows per feature and, for the classifier, a
running sum over the ``(n, k)`` one-hot class weights.  Same rows in the
same order and the same additions in the same order, so the fitted arrays
must be byte-equal — over ties, constant columns, two and three classes,
feature subsampling, cost-matrix weights and leaf minima.  The binned
regressor's edges come from one column sort; they must equal
``np.quantile``'s bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.cost_sensitive import CostMatrix
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _cut_positions,
    _cut_threshold,
    _linear_quantiles,
    _node_impurity,
    _side_impurity,
)

_ARRAYS = (
    "feature_", "threshold_", "children_left_", "children_right_", "value_",
    "node_depth_",
)


def _per_node_cuts(X, indices, feats, min_leaf):
    """Each feature's stable sort of the node's own rows, then its cuts."""
    for j in feats:
        v = X[indices, j]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cut = _cut_positions(vs, min_leaf)
        if cut.shape[0]:
            yield j, order, vs, cut


class _PerNodeClassifier(DecisionTreeClassifier):
    def _best_split(self, cols, y, w, class_rows_w, indices, order, rng):
        X = cols.T
        k = class_rows_w.shape[0]
        y_node, w_node = y[indices], w[indices]
        class_w = np.bincount(y_node, weights=w_node, minlength=k)
        parent_imp = _node_impurity(class_w, self.criterion)
        if parent_imp == 0.0:
            return None
        w_total = w_node.sum()
        n = indices.shape[0]
        if self.max_features is not None and self.max_features < X.shape[1]:
            feats = rng.choice(X.shape[1], size=self.max_features, replace=False)
        else:
            feats = np.arange(X.shape[1])
        onehot_w = np.zeros((n, k))
        onehot_w[np.arange(n), y_node] = w_node
        best = None
        for j, node_order, vs, cut in _per_node_cuts(
            X, indices, feats, self.min_samples_leaf
        ):
            left_cw = np.cumsum(onehot_w[node_order], axis=0)[cut]
            right_cw = class_w - left_cw
            wl = left_cw.sum(axis=1)
            wr = w_total - wl
            ok = (wl > 0) & (wr > 0)
            if not ok.any():
                continue
            left_cw, right_cw, wl, wr, cut = (
                left_cw[ok], right_cw[ok], wl[ok], wr[ok], cut[ok]
            )
            imp_l = _side_impurity(left_cw, wl, self.criterion)
            imp_r = _side_impurity(right_cw, wr, self.criterion)
            child_imp = (wl * imp_l + wr * imp_r) / w_total
            decrease = (parent_imp - child_imp) * (w_total / w.sum())
            pos = int(np.argmax(decrease))
            d = float(decrease[pos])
            if best is None or d > best[0]:
                best = (d, int(j), _cut_threshold(vs, cut[pos]))
        return best


class _PerNodeRegressor(DecisionTreeRegressor):
    def _best_split(self, cols, y, w, wy_rows, indices, order):
        X = cols.T
        y_node, w_node = y[indices], w[indices]
        total_w = float(w_node.sum())
        total_wy = float(np.dot(w_node, y_node))
        base = total_wy * total_wy / total_w
        best = None
        for j, node_order, vs, cut in _per_node_cuts(
            X, indices, range(X.shape[1]), self.min_samples_leaf
        ):
            cw = np.cumsum(w_node[node_order])[cut]
            cwy = np.cumsum((w_node * y_node)[node_order])[cut]
            rw = total_w - cw
            ok = (cw > 0) & (rw > 0)
            if not ok.any():
                continue
            gain = cwy[ok] ** 2 / cw[ok] + (total_wy - cwy[ok]) ** 2 / rw[ok] - base
            pos = int(np.argmax(gain))
            g = float(gain[pos])
            if g > 0 and (best is None or g > best[0]):
                best = (g, int(j), _cut_threshold(vs, cut[ok][pos]))
        return best


@st.composite
def _features(draw):
    """Rows × columns with many ties: each column draws from its own few
    levels (one level makes it constant), or is continuous."""
    n = draw(st.integers(3, 70))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.empty((n, d))
    for j in range(d):
        levels = draw(st.sampled_from([1, 2, 3, 5, 0]))
        X[:, j] = rng.normal(size=n) if levels == 0 else rng.integers(0, levels, n)
    return X, rng


def _assert_same_tree(fast, ref):
    for name in _ARRAYS:
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@settings(max_examples=100, deadline=None)
@given(
    data=_features(),
    k=st.sampled_from([2, 3]),
    weighting=st.sampled_from(["none", "cost", "random"]),
    criterion=st.sampled_from(["gini", "entropy"]),
    max_features=st.sampled_from([None, 1, 2]),
    min_samples_leaf=st.sampled_from([1, 2, 5]),
    max_splits=st.sampled_from([None, 3]),
)
def test_classifier_presorted_scan_equals_per_node_argsort(
    data, k, weighting, criterion, max_features, min_samples_leaf, max_splits
):
    X, rng = data
    y = rng.integers(0, k, size=X.shape[0])
    y[:k] = np.arange(k)  # every class present
    if weighting == "cost":
        # The paper's cost matrix over "is class 1" (Table 4's reweighting).
        w = CostMatrix(fn_cost=1.0, fp_cost=3.0).sample_weights(
            (y == 1).astype(np.int64), 1
        )
    elif weighting == "random":
        w = rng.random(X.shape[0]) + 0.01
    else:
        w = None
    params = dict(
        criterion=criterion,
        max_features=None if max_features is None else min(max_features, X.shape[1]),
        min_samples_leaf=min_samples_leaf,
        max_splits=max_splits,
        rng=7,
    )
    fast = DecisionTreeClassifier(**params).fit(X, y, sample_weight=w)
    ref = _PerNodeClassifier(**params).fit(X, y, sample_weight=w)
    _assert_same_tree(fast, ref)


@settings(max_examples=60, deadline=None)
@given(
    data=_features(),
    weighted=st.booleans(),
    min_samples_leaf=st.sampled_from([1, 2, 5]),
    max_splits=st.sampled_from([None, 3]),
)
def test_exact_regressor_presorted_scan_equals_per_node_argsort(
    data, weighted, min_samples_leaf, max_splits
):
    X, rng = data
    y = np.round(rng.normal(size=X.shape[0]), 1)  # ties in the target too
    w = rng.random(X.shape[0]) + 0.01 if weighted else None
    params = dict(min_samples_leaf=min_samples_leaf, max_splits=max_splits)
    fast = DecisionTreeRegressor(**params).fit(X, y, sample_weight=w)
    ref = _PerNodeRegressor(**params).fit(X, y, sample_weight=w)
    _assert_same_tree(fast, ref)


@settings(max_examples=100, deadline=None)
@given(data=_features(), bins=st.sampled_from([2, 3, 7, 32, 64, 100]))
def test_bin_edges_equal_numpy_quantile(data, bins):
    X, rng = data
    X = X[: rng.integers(1, X.shape[0] + 1)]  # down to a single row
    X *= 10.0 ** rng.integers(-3, 6)
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    got = _linear_quantiles(np.sort(X, axis=0), qs)
    want = np.quantile(X, qs, axis=0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
