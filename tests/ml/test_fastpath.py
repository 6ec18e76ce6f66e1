"""Property tests for the compiled-tree inference fast path.

The contract: :meth:`DecisionTreeClassifier.predict_one`, the
code-generated :class:`~repro.ml.fastpath.CompiledPredictor` (single-row
*and* vectorised batch), and the reference ``predict`` must agree on
**every** input for **every** fitted tree — including cost-sensitive
(reweighted) wrappers and trees refitted under a tighter budget.
"""

import gc
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criteria import solve_criteria
from repro.core.features import PAPER_FEATURE_NAMES, extract_features
from repro.core.labeling import one_time_labels, reaccess_distances
from repro.ml import LogisticRegression
from repro.ml.cost_sensitive import CostMatrix, CostSensitiveClassifier
from repro.ml.fastpath import (
    _MAX_CODEGEN_DEPTH,
    compile_tree_arrays,
    fast_predictor,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.trace import WorkloadConfig, generate_trace


def _dataset(rng, n, d, n_classes):
    X = rng.random((n, d))
    y = rng.integers(0, n_classes, n)
    if len(np.unique(y)) < 2:  # fit() rejects single-class targets
        y[: n_classes] = np.arange(n_classes)
    return X, y


fitted_tree_cases = st.tuples(
    st.integers(0, 2**32 - 1),      # dataset / query seed
    st.integers(20, 150),           # samples
    st.integers(1, 4),              # features
    st.integers(2, 3),              # classes
    st.one_of(st.none(), st.integers(1, 25)),  # max_splits budget
)


_COSTS = CostMatrix(fn_cost=1.0, fp_cost=3.0)

#: Every model the served node, the eviction head or the retrainer may hand
#: to ``fast_predictor``; each must come back code-generated.
_SERVED_MODELS = {
    "cart": DecisionTreeClassifier(),
    "regressor": DecisionTreeRegressor(),
    "regressor-binned": DecisionTreeRegressor(bins=8),
    "reweight-cart": CostSensitiveClassifier(DecisionTreeClassifier(), _COSTS),
}


class TestTreeParity:
    @given(case=fitted_tree_cases)
    @settings(max_examples=40, deadline=None)
    def test_predict_one_and_compiled_match_reference(self, case):
        seed, n, d, n_classes, max_splits = case
        rng = np.random.default_rng(seed)
        X, y = _dataset(rng, n, d, n_classes)
        tree = DecisionTreeClassifier(max_splits=max_splits, rng=0).fit(X, y)
        compiled = tree.compile_predictor()

        queries = np.concatenate([X, rng.random((64, d))])
        expected = tree.predict(queries)
        np.testing.assert_array_equal(compiled.predict(queries), expected)
        for row, want in zip(queries, expected):
            assert tree.predict_one(row) == want
            assert compiled.predict_one(row.tolist()) == want

    @given(case=fitted_tree_cases)
    @settings(max_examples=15, deadline=None)
    def test_pruned_tree_parity(self, case):
        """Pruning by the split budget (§3.1.2) is a refit: it rebuilds the
        arrays, and the cached walk plan must not go stale."""
        seed, n, d, n_classes, max_splits = case
        rng = np.random.default_rng(seed)
        X, y = _dataset(rng, n, d, n_classes)
        tree = DecisionTreeClassifier(max_splits=None, rng=0).fit(X, y)
        tree.predict_one(X[0])  # populate the walk-plan cache pre-prune
        unpruned_nodes = tree.node_count_
        tree.max_splits = max_splits
        pruned = tree.fit(X, y)
        assert pruned.node_count_ <= unpruned_nodes
        compiled = pruned.compile_predictor()

        queries = np.concatenate([X, rng.random((32, d))])
        expected = pruned.predict(queries)
        np.testing.assert_array_equal(compiled.predict(queries), expected)
        for row, want in zip(queries, expected):
            assert pruned.predict_one(row) == want
            assert compiled.predict_one(row.tolist()) == want


class TestCostSensitiveParity:
    @given(case=fitted_tree_cases)
    @settings(max_examples=30, deadline=None)
    def test_reweighted_tree_parity(self, case):
        seed, n, d, _, max_splits = case
        rng = np.random.default_rng(seed)
        X, y = _dataset(rng, n, d, 2)
        clf = CostSensitiveClassifier(
            DecisionTreeClassifier(max_splits=max_splits, rng=0),
            CostMatrix(fn_cost=1.0, fp_cost=3.0),
        ).fit(X, y)
        compiled = clf.compile_predictor()

        queries = np.concatenate([X, rng.random((64, d))])
        expected = clf.predict(queries)
        np.testing.assert_array_equal(compiled.predict(queries), expected)
        for row, want in zip(queries, expected):
            assert clf.predict_one(row) == want
            assert compiled.predict_one(row.tolist()) == want


class TestCompileInternals:
    def test_deep_tree_falls_back_to_walker(self):
        """A chain deeper than the codegen limit still predicts correctly."""
        depth = _MAX_CODEGEN_DEPTH + 10
        n_nodes = 2 * depth + 1
        feature = np.full(n_nodes, -1, dtype=np.int64)
        threshold = np.zeros(n_nodes)
        left = np.full(n_nodes, -1, dtype=np.int64)
        right = np.full(n_nodes, -1, dtype=np.int64)
        labels = np.zeros(n_nodes, dtype=np.int64)
        # Node 2k splits on x0 <= k: left -> leaf 2k+1 (label k),
        # right -> next split 2k+2; the final node is a leaf labelled depth.
        for k in range(depth):
            node = 2 * k
            feature[node] = 0
            threshold[node] = float(k)
            left[node] = node + 1
            right[node] = node + 2
            labels[node + 1] = k
        labels[2 * depth] = depth

        compiled = compile_tree_arrays(feature, threshold, left, right, labels)
        assert not compiled.compiled  # fell back, did not codegen
        for probe in (0.0, 3.5, depth - 1 + 0.5, depth + 50.0):
            want = min(int(np.ceil(probe)) if probe > 0 else 0, depth)
            assert compiled.predict_one([probe]) == want
        X = np.array([[0.0], [3.5], [depth + 50.0]])
        np.testing.assert_array_equal(
            compiled.predict(X), [0, 4, depth]
        )

    def test_shallow_tree_is_codegenned(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        compiled = DecisionTreeClassifier().fit(X, y).compile_predictor()
        assert compiled.compiled
        assert "def _predict_one" in compiled.source

    def test_label_dtype_preserved(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["cold", "cold", "hot", "hot"])
        tree = DecisionTreeClassifier().fit(X, y)
        compiled = tree.compile_predictor()
        assert compiled.predict_one([0.5]) == "cold"
        assert list(compiled.predict(X)) == ["cold", "cold", "hot", "hot"]

    def test_fast_predictor_generic_fallback(self):
        """Models without a tree structure still get a working predictor."""
        rng = np.random.default_rng(7)
        X = rng.random((80, 3))
        y = (X[:, 0] > 0.5).astype(int)
        model = LogisticRegression().fit(X, y)
        pred = fast_predictor(model)
        assert not pred.compiled
        expected = model.predict(X)
        np.testing.assert_array_equal(pred.predict(X), expected)
        for row, want in zip(X, expected):
            assert pred.predict_one(row) == want

    def test_broken_compile_is_not_hidden_by_the_fallback(self):
        """Only ``NotImplementedError`` means "cannot compile": a slip inside
        a ``compile_predictor`` must not silently serve the slow wrapper."""

        class Broken(LogisticRegression):
            def compile_predictor(self):
                return self.no_such_attribute

        class Declines(LogisticRegression):
            def compile_predictor(self):
                raise NotImplementedError

        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        with pytest.raises(AttributeError, match="no_such_attribute"):
            fast_predictor(Broken().fit(X, y))
        assert not fast_predictor(Declines().fit(X, y)).compiled

    @pytest.mark.parametrize("name", _SERVED_MODELS)
    def test_every_served_model_is_really_compiled(self, name):
        model = _SERVED_MODELS[name]
        rng = np.random.default_rng(3)
        X = rng.random((120, 3))
        y = (X[:, 0] + 0.2 * rng.standard_normal(120) > 0.5).astype(int)
        pred = fast_predictor(model.fit(X, y))
        assert pred.compiled is True
        np.testing.assert_array_equal(pred.predict(X), model.predict(X))


def test_paper_cart_predict_one_is_one_frame_and_no_c_calls():
    """The compiled admission tree, counted rather than clocked.

    The paper's classifier — cost-sensitive CART, 30 splits, false
    positives at twice the cost (§3.1.2) — on the five paper features of a
    pinned trace, compiled by ``fast_predictor``.  A verdict is the one
    generated ``_predict_one`` frame and nothing else: no helper frame, no
    C call (a NumPy scalar, a ``len``, a ``float()`` would each show up).
    """
    trace = generate_trace(WorkloadConfig(n_objects=3000, seed=51))
    criteria = solve_criteria(
        reaccess_distances(trace.object_ids),
        max(1, trace.footprint_bytes // 100),
        trace.mean_object_size(),
    )
    labels = one_time_labels(trace.object_ids, criteria.m_threshold)
    X = extract_features(trace).select(PAPER_FEATURE_NAMES).X
    model = CostSensitiveClassifier(
        DecisionTreeClassifier(max_splits=30, rng=0),
        CostMatrix(fn_cost=1.0, fp_cost=2.0),
    ).fit(X, labels)
    predictor = fast_predictor(model)
    assert predictor.compiled
    predict_one = predictor.predict_one
    rows = [row.tolist() for row in X[:1000]]

    events: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            events[frame.f_code.co_name] += 1
        elif event == "c_call" and arg is not sys.setprofile:
            events["c_call"] += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        for row in rows:
            predict_one(row)
    finally:
        sys.setprofile(None)
        gc.enable()

    assert events == {"_predict_one": len(rows)}
    np.testing.assert_array_equal(
        [predict_one(row) for row in rows], model.predict(X[:1000])
    )
