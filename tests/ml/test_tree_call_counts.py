"""NumPy calls per tree fit and per tree node, pinned as exact integers.

The trees' speed-ups are changes in *counts* — one histogram pass per node
in place of an argsort per (node, feature); one argsort per feature per
fit, carried down the tree, in place of one per (node, feature); one sort
per binned fit in place of ``np.quantile``'s partitions — and a wall-clock
gate cannot hold a count: it moves with the machine.  This one cannot move
at all.  The shared grower (``_FlatTree._grow``) calls ``leaf_value`` once
per created node and ``best_split`` once per considered node (one that
passed the ``min_samples_split`` / ``max_depth`` checks); everything else
is the split search's own.
"""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

N, D = 2000, 9


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``np.bincount`` / ``np.argsort`` / ``np.sort`` /
    ``np.quantile`` calls."""
    counts = dict.fromkeys(("bincount", "argsort", "sort", "quantile"), 0)
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
    # The bin edges come from one column-wise sort (``np.quantile`` here
    # cost one call and a partition per distinct neighbour index).
    assert calls == {"bincount": per_node * 61, "argsort": 0, "sort": 1, "quantile": 0}


def test_exact_regressor_search_sorts_each_feature_once_per_fit(calls):
    X, y, _, _ = _data()
    model, seen = _considered(DecisionTreeRegressor, "_best_split", min_samples_split=40)
    model.fit(X, y)
    # Nodes under 40 rows are created (a leaf value each, no NumPy call
    # counted here) but never searched.  Searched nodes sort nothing: the
    # root's D orders are partitioned down the tree (51 * D argsorts when
    # every searched node sorted every feature).
    assert (model.node_count_, len(seen)) == (61, 51)
    assert calls == {"bincount": 0, "argsort": D, "sort": 0, "quantile": 0}


def test_classifier_search_sorts_each_feature_once_per_fit(calls):
    X, _, y, _ = _data()
    model, seen = _considered(
        DecisionTreeClassifier, "_best_split", max_features=4, min_samples_split=40, rng=0
    )
    model.fit(X, y)
    assert (model.node_count_, len(seen)) == (61, 41)
    # One bincount per created node (its class weights are the leaf value)
    # and one per considered node (the parent's impurity).  Every feature
    # is sorted once, up front: any of them can be a later node's candidate
    # (41 * 4 argsorts when each searched node sorted its 4 candidates).
    assert calls == {"bincount": 61 + 41, "argsort": D, "sort": 0, "quantile": 0}
