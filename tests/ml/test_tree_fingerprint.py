"""Pinned fingerprints of every tree-built model in :mod:`repro.ml`.

The admission CART, the eviction regressor, the GBDT's rounds, the forest
and AdaBoost all grow through one best-first loop (``ml/tree.py``
``_grow``).  The digests below were recorded at ``b7c8d85`` — when the
classifier and the regressor each carried their own copy of that loop and
the GBDT a third, depth-first grower — *before* the first edit that
merged them.  A change that moves one of them changes which trees are
fitted; it is not a refactor of the grower.

What is hashed: the structure arrays (``feature_``, ``threshold_``,
``children_*``, ``node_depth_``) byte for byte; ``value_``,
``feature_importances_`` and every predicted float rounded to 1e-9 first,
because leaf means come from a BLAS ``ddot`` and the GBDT's margins go
through a SIMD ``exp`` whose last bits follow the host (see
``tests/cache/test_learned.py::_HashingTrainer``).  The GBDT is hashed by
its outputs and node count only: best-first and depth-first growth apply
the same split to the same rows, but number the nodes differently.
"""

import hashlib

import numpy as np
import pytest

from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

N, D, N_SCALAR = 4000, 9, 200


def _data():
    rng = np.random.default_rng(7)
    X = np.floor(rng.random((N, D)) * rng.integers(4, 40, size=D)).astype(np.float64)
    score = X[:, 0] / X[:, 0].max() + (X[:, 3] > X[:, 3].mean()) * (X[:, 5] % 3 == 0)
    noise = rng.normal(0.0, 0.25, N)
    y2 = (score + noise > 0.8).astype(np.int64)
    y3 = np.digitize(score + noise, [0.5, 1.1])
    target = np.log1p(X[:, 1] * X[:, 2]) + 0.5 * X[:, 7] + rng.normal(0.0, 0.5, N)
    weight = rng.random(N) * 3.0 + 0.1
    queries = np.concatenate([X[:600], np.floor(rng.random((400, D)) * 45.0)])
    return X, y2, y3, target, weight, queries


X, Y2, Y3, TARGET, WEIGHT, QUERIES = _data()


class _Digest:
    def __init__(self):
        self._sha = hashlib.sha256()

    def exact(self, *arrays):
        for a in arrays:
            self._sha.update(np.ascontiguousarray(a).tobytes())

    def rounded(self, *arrays):
        # ``+ 0.0`` folds the -0.0 a rounded tiny negative leaves behind.
        self.exact(*(np.round(np.asarray(a, dtype=np.float64), 9) + 0.0 for a in arrays))

    def tree(self, t):
        self.exact(t.feature_, t.threshold_, t.children_left_,
                   t.children_right_, t.node_depth_)
        self.rounded(t.value_)

    def hexdigest(self):
        return self._sha.hexdigest()


def _scalar(fn, rows=QUERIES[:N_SCALAR]):
    return np.array([fn(row.tolist()) for row in rows])


def _classifier(y, sample_weight=None, **params):
    def build():
        m = DecisionTreeClassifier(**params).fit(X, y, sample_weight=sample_weight)
        compiled = m.compile_predictor()
        assert compiled.compiled
        d = _Digest()
        d.tree(m)
        d.rounded(m.feature_importances_, m.predict_proba(QUERIES))
        d.exact(m.predict(QUERIES), _scalar(m.predict_one),
                compiled.predict(QUERIES), _scalar(compiled.predict_one))
        return d

    return build


def _regressor(sample_weight=None, **params):
    def build():
        m = DecisionTreeRegressor(**params).fit(X, TARGET, sample_weight=sample_weight)
        compiled = m.compile_predictor()
        assert compiled.compiled
        d = _Digest()
        d.tree(m)
        d.rounded(m.predict(QUERIES), _scalar(m.predict_one),
                  compiled.predict(QUERIES), _scalar(compiled.predict_one))
        return d

    return build


def _gbdt(sample_weight=None, **params):
    def build():
        m = GradientBoostingClassifier(12, **params).fit(X, Y2, sample_weight=sample_weight)
        margins = m.compile_decision_function()
        assert margins.compiled
        d = _Digest()
        d.exact(np.int64(margins.n_nodes), m.predict(QUERIES),
                m.compile_predictor().predict(QUERIES))
        d.rounded(m.init_score_, m.decision_function(QUERIES), m.predict_proba(QUERIES),
                  margins.predict(QUERIES), _scalar(margins.predict_one))
        return d

    return build


def _ensemble(model):
    def build():
        m = model.fit(X, Y2)
        d = _Digest()
        for t in m.estimators_:
            d.tree(t)
        d.rounded(m.predict_proba(QUERIES))
        d.exact(m.predict(QUERIES))
        return d

    return build


CASES = {
    "clf_gini": (
        _classifier(Y2),
        "2b924997cfa80735827e348bfe4218022b0a6ac3f9d2d56478b1776000c8797a",
    ),
    "clf_entropy": (
        _classifier(Y2, criterion="entropy"),
        "248355ec93379af47ce87490a5a7505ba7293fbc78e156c82719004309eb477e",
    ),
    "clf_weighted_min_leaf": (
        _classifier(Y2, sample_weight=WEIGHT, min_samples_leaf=25),
        "d3406633c6e2505516e2edb4e1130b18839753b2d01b2447abe1922e61a37b77",
    ),
    "clf_max_features_rng": (
        _classifier(Y2, max_features=3, rng=5),
        "20f5841c57d5f33d6dbb3dd493c9dd9e7a8061da655379f6809502e87793e357",
    ),
    "clf_multiclass_depth3_unlimited": (
        _classifier(Y3, max_depth=3, max_splits=None),
        "e871385a953abf04f03b50ee52355f7e544a0ac45ecc983d8f5fa73b819c2899",
    ),
    "clf_min_impurity_decrease": (
        _classifier(Y2, max_splits=None, min_impurity_decrease=0.002),
        "d3830f5d8b5da581dcf2796458d37d0a49989d81f33fa5150dac90160558ebe6",
    ),
    "reg_exact_unit": (
        _regressor(),
        "81d9d35dcb8456aa39954d1962f56c4a567e3cb2b89bbed2c6f23014ad0b0eca",
    ),
    "reg_exact_weighted": (
        _regressor(sample_weight=WEIGHT, min_samples_leaf=10),
        "012e8e729f464f8527a655d354db23cae8c36692484b0a515855406ef86a8110",
    ),
    "reg_binned_unit": (
        _regressor(bins=32, min_samples_leaf=8),
        "92e926877b61a9e38847da86f04997344400881fd860c2df8666fff80413d4fa",
    ),
    "reg_binned_weighted": (
        _regressor(sample_weight=WEIGHT, bins=32),
        "b3caa38ce202545095b28221cb9c42dea9b4a37dcc2deaf3fbf25a9caac0c1e7",
    ),
    "gbdt_unit": (
        _gbdt(),
        "f03d2221987fba3ec1c21105da9613451c36498b78c3880a5f5d10e2d31604ee",
    ),
    "gbdt_weighted": (
        _gbdt(sample_weight=WEIGHT, max_depth=4, min_samples_leaf=12),
        "f5f477ce33956fb67c722ef70a1d0ad6a98c42e8369844cd43c2b05ebd564702",
    ),
    "gbdt_subsample": (
        _gbdt(subsample=0.6, rng=3),
        "3361197b5a01418bc7109f26ce2418ec12aa07b80eedb0186220bca56589ab3c",
    ),
    "forest": (
        _ensemble(RandomForestClassifier(5, rng=1)),
        "7a3258137e0555a22a18d5f937e2cc4a10a20e93b17ea2173fa5e255244ac031",
    ),
    "adaboost": (
        _ensemble(AdaBoostClassifier(8, rng=2)),
        "4316b154951117ddea93f1bb887be4a4ae9592048f20c5f2e392a5ea9cb36f25",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_fingerprint_is_the_parents(name):
    build, want = CASES[name]
    assert build().hexdigest() == want, name
