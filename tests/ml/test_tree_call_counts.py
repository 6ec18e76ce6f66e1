"""NumPy calls per tree node, pinned as exact integers.

PR 18's refit gain was a change in *counts* — one histogram pass per node
in place of an argsort per (node, feature) — and a wall-clock gate cannot
hold a count: it moves with the machine.  This one cannot move at all.
The shared grower (``_FlatTree._grow``) calls ``leaf_value`` once per
created node and ``best_split`` once per considered node (one that passed
the ``min_samples_split`` / ``max_depth`` checks); everything else is the
split search's own.
"""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

N, D = 2000, 9


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``np.bincount`` / ``np.argsort`` / ``np.quantile`` calls."""
    counts = dict.fromkeys(("bincount", "argsort", "quantile"), 0)
    for name in counts:
        real = getattr(np, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    return counts


def _data():
    rng = np.random.default_rng(22)
    X = np.floor(rng.random((N, D)) * 30.0)
    y = X[:, 0] + 0.5 * X[:, 4] + rng.normal(0.0, 6.0, N)
    return X, y, (y > np.median(y)).astype(np.int64), rng.random(N) + 0.5


def _considered(model_cls, method, **params):
    """The model, and a list that grows by one per call of its ``method``."""
    seen = []
    real = getattr(model_cls, method)

    def search(self, *args):
        seen.append(1)
        return real(self, *args)

    return type("Counting", (model_cls,), {method: search})(**params), seen


@pytest.mark.parametrize("weighted, per_node", [(False, 2), (True, 3)])
def test_binned_search_is_one_histogram_pass_per_node(calls, weighted, per_node):
    X, y, _, w = _data()
    model, seen = _considered(DecisionTreeRegressor, "_best_split_binned", bins=32)
    model.fit(X, y, sample_weight=w if weighted else None)
    assert (model.node_count_, len(seen)) == (61, 61)
    assert calls == {"bincount": per_node * 61, "argsort": 0, "quantile": 1}


def test_exact_regressor_search_is_one_argsort_per_node_and_feature(calls):
    X, y, _, _ = _data()
    model, seen = _considered(DecisionTreeRegressor, "_best_split", min_samples_split=40)
    model.fit(X, y)
    # Nodes under 40 rows are created (a leaf value each, no NumPy call
    # counted here) but never searched.
    assert (model.node_count_, len(seen)) == (61, 51)
    assert calls == {"bincount": 0, "argsort": 51 * D, "quantile": 0}


def test_classifier_search_sorts_candidate_features_only(calls):
    X, _, y, _ = _data()
    model, seen = _considered(
        DecisionTreeClassifier, "_best_split", max_features=4, min_samples_split=40, rng=0
    )
    model.fit(X, y)
    assert (model.node_count_, len(seen)) == (61, 41)
    # One bincount per created node (its class weights are the leaf value)
    # and one per considered node (the parent's impurity).
    assert calls == {"bincount": 61 + 41, "argsort": 41 * 4, "quantile": 0}
