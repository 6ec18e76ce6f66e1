"""Tests for the CART decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.model_selection import _clone
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class TestFitBasics:
    def test_perfectly_separable(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert (tree.predict(X) == y).all()
        assert tree.n_splits_ == 1
        assert tree.get_depth() == 1

    def test_unconstrained_tree_fits_training_set(self):
        """With no budget, CART drives training error to zero on distinct X."""
        rng = np.random.default_rng(0)
        X = rng.random((300, 4))
        y = rng.integers(0, 2, 300)
        tree = DecisionTreeClassifier(max_splits=None).fit(X, y)
        assert tree.score(X, y) == 1.0

    def test_multiclass(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 3))
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_splits=None).fit(X, y)
        assert tree.score(X, y) > 0.98
        assert set(tree.predict(X)) <= {0, 1, 2}

    def test_label_space_preserved(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["cold", "cold", "hot", "hot"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) == {"cold", "hot"}

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([[1.0], [2.0]], [1, 1])

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_clone_of_a_walked_tree_is_unfitted(self):
        """The cached scalar walk is fitted state: a clone must not keep it."""
        tree = DecisionTreeClassifier().fit([[0.0], [1.0]], [0, 1])
        assert tree.predict_one([0.0]) == 0  # populates the cache
        with pytest.raises(RuntimeError, match="not fitted"):
            _clone(tree).predict_one([1.0])
        with pytest.raises(RuntimeError, match="not fitted"):
            _clone(tree).compile_predictor()

    def test_feature_count_mismatch_raises(self):
        tree = DecisionTreeClassifier().fit([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError):
            tree.predict([[0.0, 1.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([[np.nan], [1.0]], [0, 1])


class TestBudgets:
    def test_max_splits_respected(self):
        rng = np.random.default_rng(2)
        X = rng.random((500, 6))
        y = rng.integers(0, 2, 500)
        tree = DecisionTreeClassifier(max_splits=30).fit(X, y)
        assert tree.n_splits_ <= 30
        internal = np.sum(tree.feature_ >= 0)
        assert internal == tree.n_splits_
        assert (tree.feature_ < 0).sum() == tree.n_splits_ + 1

    def test_max_depth_respected(self):
        rng = np.random.default_rng(3)
        X = rng.random((400, 4))
        y = rng.integers(0, 2, 400)
        tree = DecisionTreeClassifier(max_splits=None, max_depth=3).fit(X, y)
        assert tree.get_depth() <= 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(4)
        X = rng.random((200, 3))
        y = rng.integers(0, 2, 200)
        tree = DecisionTreeClassifier(max_splits=None, min_samples_leaf=20).fit(X, y)
        leaves = tree._leaf_ids(np.ascontiguousarray(X))
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 20

    def test_best_first_beats_random_prefix(self):
        """A 5-split best-first tree must do no worse than a 1-split tree."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(600, 5))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        small = DecisionTreeClassifier(max_splits=1).fit(X, y)
        large = DecisionTreeClassifier(max_splits=5).fit(X, y)
        assert large.score(X, y) >= small.score(X, y)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_splits=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="mse")
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)

    @pytest.mark.parametrize("tree", [DecisionTreeClassifier, DecisionTreeRegressor])
    @pytest.mark.parametrize(
        "limit, bad",
        [("max_splits", 0), ("max_depth", -1), ("min_samples_split", 1),
         ("min_samples_leaf", 0), ("min_impurity_decrease", -1.0)],
    )
    def test_both_trees_reject_the_same_limits(self, tree, limit, bad):
        with pytest.raises(ValueError, match=limit):
            tree(**{limit: bad})

    @pytest.mark.parametrize("tree", [DecisionTreeClassifier, DecisionTreeRegressor])
    def test_depth_zero_is_the_root_alone(self, tree):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1])
        model = tree(max_depth=0).fit(X, y)
        assert model.node_count_ == 1 and model.get_depth() == 0
        assert len(set(model.predict(X).tolist())) == 1


class TestSampleWeights:
    def test_weights_shift_decision(self):
        """Upweighting one class must pull the prediction toward it."""
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        # At x=0 the unweighted majority is class 0 …
        plain = DecisionTreeClassifier().fit(X, y)
        assert plain.predict([[0.0]])[0] == 0
        # … but weighting the single class-1 sample 5× flips it.
        w = np.array([1.0, 1.0, 5.0, 1.0])
        weighted = DecisionTreeClassifier().fit(X, y, sample_weight=w)
        assert weighted.predict([[0.0]])[0] == 1

    def test_zero_weight_ignored(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        # Mislabel a point but give it zero weight: the fit must not change.
        y2 = y.copy()
        y2[0] = 1
        w = np.array([0.0, 1.0, 1.0, 1.0])
        tree = DecisionTreeClassifier().fit(X, y2, sample_weight=w)
        assert (tree.predict(X) == y).all()

    def test_uniform_weights_match_unweighted(self):
        rng = np.random.default_rng(6)
        X = rng.random((200, 3))
        y = rng.integers(0, 2, 200)
        t1 = DecisionTreeClassifier(rng=0).fit(X, y)
        t2 = DecisionTreeClassifier(rng=0).fit(X, y, sample_weight=np.full(200, 3.5))
        assert (t1.predict(X) == t2.predict(X)).all()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(
                [[0.0], [1.0]], [0, 1], sample_weight=[-1.0, 1.0]
            )


class TestProbaAndInspection:
    def test_proba_rows_sum_to_one(self, binary_dataset):
        X, y = binary_dataset
        tree = DecisionTreeClassifier().fit(X, y)
        p = tree.predict_proba(X)
        assert p.shape == (X.shape[0], 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_predict_is_argmax_proba(self, binary_dataset):
        X, y = binary_dataset
        tree = DecisionTreeClassifier().fit(X, y)
        p = tree.predict_proba(X)
        assert (tree.predict(X) == tree.classes_[p.argmax(axis=1)]).all()

    def test_feature_importances_normalised(self, binary_dataset):
        X, y = binary_dataset
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.feature_importances_.shape == (X.shape[1],)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)
        # Features 0 and 1 drive the labels; feature 3 is pure noise.
        assert tree.feature_importances_[0] > tree.feature_importances_[3]

    def test_decision_path_lengths_bounded_by_depth(self, binary_dataset):
        X, y = binary_dataset
        tree = DecisionTreeClassifier().fit(X, y)
        lengths = tree.decision_path_lengths(X)
        assert lengths.max() <= tree.get_depth()
        assert lengths.min() >= 0

    def test_entropy_criterion_works(self, binary_dataset):
        X, y = binary_dataset
        tree = DecisionTreeClassifier(criterion="entropy").fit(X, y)
        assert tree.score(X, y) > 0.9


class TestPropertyBased:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(10, 60), st.integers(1, 4)),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_predictions_are_training_labels(self, X, data):
        y = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 2), min_size=X.shape[0], max_size=X.shape[0]
                )
            )
        )
        if np.unique(y).shape[0] < 2:
            y[0] = 0
            y[1] = 1
        tree = DecisionTreeClassifier(max_splits=10).fit(X, y)
        pred = tree.predict(X)
        assert set(pred.tolist()) <= set(y.tolist())

    @given(st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_split_budget_never_exceeded(self, budget):
        rng = np.random.default_rng(9)
        X = rng.random((150, 3))
        y = rng.integers(0, 2, 150)
        tree = DecisionTreeClassifier(max_splits=budget).fit(X, y)
        assert tree.n_splits_ <= budget

    @given(st.floats(1.0, 10.0))
    @settings(max_examples=15, deadline=None)
    def test_weight_scaling_invariance(self, scale):
        """Multiplying all weights by a constant must not change the tree."""
        rng = np.random.default_rng(10)
        X = rng.random((100, 3))
        # Structured labels: split gains differ clearly, so float-epsilon
        # noise from weight normalisation cannot flip tie-breaking.
        y = (X[:, 0] > 0.5).astype(int)
        base = DecisionTreeClassifier(rng=0).fit(
            X, y, sample_weight=np.ones(100)
        )
        scaled = DecisionTreeClassifier(rng=0).fit(
            X, y, sample_weight=np.full(100, scale)
        )
        assert (base.predict(X) == scaled.predict(X)).all()
