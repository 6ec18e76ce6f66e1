"""Cross-estimator contract tests plus per-estimator behaviour checks."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GaussianNB,
    KNeighborsClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)

ALL_ESTIMATORS = [
    pytest.param(lambda: DecisionTreeClassifier(rng=0), id="tree"),
    pytest.param(lambda: RandomForestClassifier(5, rng=0), id="forest"),
    pytest.param(lambda: AdaBoostClassifier(5, rng=0), id="adaboost"),
    pytest.param(lambda: GaussianNB(), id="gnb"),
    pytest.param(lambda: KNeighborsClassifier(3), id="knn"),
    pytest.param(lambda: LogisticRegression(), id="logreg"),
    pytest.param(lambda: MLPClassifier(8, epochs=15, rng=0), id="mlp"),
]


@pytest.mark.parametrize("make", ALL_ESTIMATORS)
class TestEstimatorContract:
    def test_beats_chance_on_separable_data(self, make, binary_dataset):
        X, y = binary_dataset
        model = make().fit(X[:800], y[:800])
        assert model.score(X[800:], y[800:]) > 0.7

    def test_classes_attribute(self, make, binary_dataset):
        X, y = binary_dataset
        model = make().fit(X, y)
        assert (model.classes_ == np.array([0, 1])).all()

    def test_proba_valid_distribution(self, make, binary_dataset):
        X, y = binary_dataset
        model = make().fit(X, y)
        p = model.predict_proba(X[:50])
        assert p.shape == (50, 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert (p >= 0).all() and (p <= 1 + 1e-12).all()

    def test_predict_shape_and_dtype(self, make, binary_dataset):
        X, y = binary_dataset
        model = make().fit(X, y)
        pred = model.predict(X[:10])
        assert pred.shape == (10,)
        assert set(pred.tolist()) <= {0, 1}

    def test_single_class_rejected(self, make):
        with pytest.raises(ValueError):
            make().fit(np.random.default_rng(0).random((20, 2)), np.zeros(20))

    def test_unfitted_predict_raises(self, make):
        with pytest.raises((RuntimeError, AttributeError)):
            make().predict(np.zeros((2, 2)))

    def test_sample_weight_accepted(self, make, binary_dataset):
        X, y = binary_dataset
        w = np.where(y == 1, 2.0, 1.0)
        model = make().fit(X[:400], y[:400], sample_weight=w[:400])
        assert model.score(X[400:800], y[400:800]) > 0.6


class TestGaussianNB:
    def test_recovers_gaussian_classes(self):
        rng = np.random.default_rng(0)
        X0 = rng.normal(-2, 1, size=(500, 2))
        X1 = rng.normal(+2, 1, size=(500, 2))
        X = np.vstack([X0, X1])
        y = np.r_[np.zeros(500), np.ones(500)]
        model = GaussianNB().fit(X, y)
        assert model.score(X, y) > 0.97
        assert model.theta_[0, 0] == pytest.approx(-2, abs=0.2)
        assert model.theta_[1, 0] == pytest.approx(+2, abs=0.2)

    def test_priors_reflect_weights(self):
        X = np.array([[0.0], [0.1], [1.0], [1.1]])
        y = np.array([0, 0, 1, 1])
        w = np.array([3.0, 3.0, 1.0, 1.0])
        model = GaussianNB().fit(X, y, sample_weight=w)
        priors = np.exp(model.class_log_prior_)
        assert priors[0] == pytest.approx(0.75)

    def test_var_smoothing_guards_constant_feature(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        model = GaussianNB().fit(X, y)
        assert np.isfinite(model.predict_proba(X)).all()


class TestKNN:
    def test_one_neighbor_memorises(self):
        rng = np.random.default_rng(2)
        X = rng.random((100, 3))
        y = rng.integers(0, 2, 100)
        model = KNeighborsClassifier(1).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(10).fit(np.zeros((5, 2)), [0, 1, 0, 1, 0])

    def test_distance_weighting(self):
        # Two far class-0 points, one near class-1 point; k=3 uniform votes 0,
        # distance weighting flips to 1.
        X = np.array([[0.0], [10.0], [-10.0]])
        y = np.array([1, 0, 0])
        q = np.array([[0.5]])
        uniform = KNeighborsClassifier(3, standardize=False).fit(X, y)
        weighted = KNeighborsClassifier(3, weights="distance", standardize=False).fit(X, y)
        assert uniform.predict(q)[0] == 0
        assert weighted.predict(q)[0] == 1

    def test_blocked_equals_unblocked(self, binary_dataset):
        X, y = binary_dataset
        big = KNeighborsClassifier(5, block_size=10_000).fit(X[:500], y[:500])
        small = KNeighborsClassifier(5, block_size=17).fit(X[:500], y[:500])
        np.testing.assert_array_equal(
            big.predict(X[500:700]), small.predict(X[500:700])
        )


class TestLogisticRegression:
    def test_recovers_linear_boundary(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(2000, 2))
        y = (X @ np.array([2.0, -1.0]) > 0.5).astype(int)
        model = LogisticRegression(max_iter=2000).fit(X, y)
        assert model.score(X, y) > 0.95
        # Coefficient signs must match the generating vector.
        assert model.coef_[0] > 0 > model.coef_[1]

    def test_stronger_regularisation_shrinks_coefs(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 3))
        y = (X[:, 0] > 0).astype(int)
        loose = LogisticRegression(C=100.0, max_iter=2000).fit(X, y)
        tight = LogisticRegression(C=0.001, max_iter=2000).fit(X, y)
        assert np.abs(tight.coef_).sum() < np.abs(loose.coef_).sum()

    def test_multiclass_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.random.random((9, 2)), [0, 1, 2] * 3)

    def test_decision_function_sign_matches_predict(self, binary_dataset):
        X, y = binary_dataset
        model = LogisticRegression().fit(X, y)
        df = model.decision_function(X)
        assert ((df >= 0) == (model.predict(X) == 1)).all()


class TestMLP:
    def test_learns_xor(self):
        """A hidden layer must solve what logistic regression cannot."""
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(1500, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        mlp = MLPClassifier(16, epochs=120, learning_rate=0.5, rng=0).fit(X, y)
        assert mlp.score(X, y) > 0.9
        lin = LogisticRegression().fit(X, y)
        assert lin.score(X, y) < 0.65

    def test_deterministic_given_seed(self, binary_dataset):
        X, y = binary_dataset
        a = MLPClassifier(8, epochs=5, rng=7).fit(X, y).predict(X)
        b = MLPClassifier(8, epochs=5, rng=7).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)


class TestEnsembles:
    def test_forest_no_worse_than_single_tree(self, binary_dataset):
        X, y = binary_dataset
        tree = DecisionTreeClassifier(max_splits=5, rng=0).fit(X[:800], y[:800])
        forest = RandomForestClassifier(
            15, max_splits=5, rng=0
        ).fit(X[:800], y[:800])
        assert forest.score(X[800:], y[800:]) >= tree.score(X[800:], y[800:]) - 0.02

    def test_adaboost_improves_weak_stumps(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(800, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)  # stumps can't do XOR
        stump = DecisionTreeClassifier(max_splits=1).fit(X, y)
        boosted = AdaBoostClassifier(
            40, base_max_splits=3, base_max_depth=2, rng=0
        ).fit(X, y)
        assert boosted.score(X, y) > stump.score(X, y) + 0.2

    def test_ensemble_size_respected(self, binary_dataset):
        X, y = binary_dataset
        forest = RandomForestClassifier(7, rng=0).fit(X, y)
        assert len(forest.estimators_) == 7
        ada = AdaBoostClassifier(6, rng=0).fit(X, y)
        assert len(ada.estimators_) <= 6

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(0)
        with pytest.raises(ValueError):
            AdaBoostClassifier(0)
