"""Compiled GBDT inference parity.

The serving node's retrainer may install a gradient-boosted ensemble; the
hot path then runs entirely through the compiled walkers.  The contract
mirrors the CART fast path: compiled margins and class verdicts must be
**bit-identical** to the reference ensemble on every
input — the margin accumulation even reproduces the reference's float
summation order, so agreement holds at the decision boundary too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.cost_sensitive import CostMatrix, CostSensitiveClassifier
from repro.ml.fastpath import fast_predictor
from repro.ml.gbdt import GradientBoostingClassifier


def _dataset(rng, n, d):
    X = rng.random((n, d))
    y = (X[:, 0] + 0.3 * rng.standard_normal(n) > 0.5).astype(int)
    if len(np.unique(y)) < 2:
        y[:2] = [0, 1]
    return X, y


ensemble_cases = st.tuples(
    st.integers(0, 2**32 - 1),   # dataset / query seed
    st.integers(30, 120),        # samples
    st.integers(1, 4),           # features
    st.integers(1, 12),          # n_estimators
    st.integers(1, 4),           # max_depth
    st.sampled_from([1.0, 0.7]),  # subsample
)


def _fit(case):
    seed, n, d, n_estimators, max_depth, subsample = case
    rng = np.random.default_rng(seed)
    X, y = _dataset(rng, n, d)
    gb = GradientBoostingClassifier(
        n_estimators=n_estimators,
        max_depth=max_depth,
        subsample=subsample,
        min_samples_leaf=2,
        rng=seed,
    ).fit(X, y)
    queries = np.concatenate([X, rng.random((64, d))])
    return gb, queries


class TestEnsembleParity:
    @given(case=ensemble_cases)
    @settings(max_examples=30, deadline=None)
    def test_compiled_margins_match_reference(self, case):
        gb, queries = _fit(case)
        margins = gb.compile_decision_function()
        assert margins.compiled
        expected = gb.decision_function(queries)
        np.testing.assert_array_equal(margins.predict(queries), expected)
        for row, want in zip(queries, expected):
            assert margins.predict_one(row.tolist()) == want

    @given(case=ensemble_cases)
    @settings(max_examples=20, deadline=None)
    def test_compiled_classes_match_reference(self, case):
        gb, queries = _fit(case)
        predictor = gb.compile_predictor()
        expected = gb.predict(queries)
        np.testing.assert_array_equal(predictor.predict(queries), expected)
        for row, want in zip(queries, expected):
            assert predictor.predict_one(row.tolist()) == want

    def test_fast_predictor_compiles_gbdt_natively(self):
        """The dispatcher must not fall back to the generic wrapper."""
        rng = np.random.default_rng(7)
        X, y = _dataset(rng, 80, 3)
        gb = GradientBoostingClassifier(n_estimators=5, rng=0).fit(X, y)
        cp = fast_predictor(gb)
        assert cp.compiled
        assert cp.n_nodes > 0
        np.testing.assert_array_equal(cp.predict(X), gb.predict(X))

    def test_n_nodes_sums_over_ensemble(self):
        rng = np.random.default_rng(3)
        X, y = _dataset(rng, 60, 2)
        small = GradientBoostingClassifier(n_estimators=2, rng=0).fit(X, y)
        large = GradientBoostingClassifier(n_estimators=8, rng=0).fit(X, y)
        assert (
            fast_predictor(large).n_nodes > fast_predictor(small).n_nodes
        )


class TestCostSensitiveOverGbdt:
    @given(case=ensemble_cases)
    @settings(max_examples=15, deadline=None)
    def test_reweighted_wrapper_parity(self, case):
        """Cost-sensitive reweighting over a GBDT base, compiled vs not."""
        seed, n, d, n_estimators, max_depth, subsample = case
        rng = np.random.default_rng(seed)
        X, y = _dataset(rng, n, d)
        model = CostSensitiveClassifier(
            GradientBoostingClassifier(
                n_estimators=n_estimators,
                max_depth=max_depth,
                subsample=subsample,
                min_samples_leaf=2,
                rng=seed,
            ),
            CostMatrix(fn_cost=1.0, fp_cost=2.0),
        ).fit(X, y)
        cp = fast_predictor(model)
        queries = np.concatenate([X, rng.random((48, d))])
        expected = model.predict(queries)
        np.testing.assert_array_equal(cp.predict(queries), expected)
        for row, want in zip(queries, expected):
            assert cp.predict_one(row.tolist()) == want
