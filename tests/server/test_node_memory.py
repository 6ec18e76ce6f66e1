"""The served node's memory, pinned as exact counts and identities.

The seed model extracts features for its training prefix only, and the
node and its feature tracker index one shared copy of the per-request
lists, whose elements are one ``int`` per distinct object.  Rows read,
object identities and array attributes are exact; none depends on the
machine the way a resident-set reading does.
"""

import numpy as np
import pytest

import repro.server.node as node_module
from repro.core.features import PAPER_FEATURE_NAMES, extract_features
from repro.core.labeling import one_time_labels
from repro.core.training import paper_classifier
from repro.server.node import (
    CacheNode,
    NodeConfig,
    solve_node_criteria,
    train_seed_model,
)
from repro.trace.generator import WorkloadConfig, generate_trace

_TREE_ARRAYS = ("feature_", "threshold_", "children_left_", "children_right_", "value_")


@pytest.fixture(scope="module")
def second_trace():
    return generate_trace(WorkloadConfig(n_objects=1500, seed=5))


class TestSeedModelPrefix:
    @pytest.mark.parametrize("trace_name", ["tiny_trace", "second_trace"])
    @pytest.mark.parametrize("train_seconds", [86400.0, 2 * 86400.0, 1e9])
    def test_reads_only_its_prefix_and_fits_the_same_tree(
        self, request, monkeypatch, trace_name, train_seconds
    ):
        trace = request.getfixturevalue(trace_name)
        cfg = NodeConfig(capacity_fraction=0.02, train_seconds=train_seconds)
        criteria = solve_node_criteria(trace, cfg)
        rows = []

        def recording(tr):
            rows.append(tr.n_accesses)
            return extract_features(tr)

        monkeypatch.setattr(node_module, "extract_features", recording)
        model = train_seed_model(trace, cfg, criteria)
        assert model is not None
        n = int(np.searchsorted(trace.timestamps, train_seconds))
        assert rows == [n]
        if train_seconds < trace.duration:
            assert n < trace.n_accesses

        # The reference: the whole trace's matrix, masked to the prefix.
        mask = trace.timestamps < train_seconds
        X = extract_features(trace).select(PAPER_FEATURE_NAMES).X[mask]
        y = one_time_labels(trace.object_ids, criteria.m_threshold)[mask]
        ref = paper_classifier(cfg.cost_v, cfg.max_splits, cfg.seed).fit(X, y)
        for name in _TREE_ARRAYS:
            np.testing.assert_array_equal(
                getattr(model.model_, name), getattr(ref.model_, name), name
            )


class TestOneCopy:
    def test_node_and_tracker_share_interned_lists(self, tiny_trace):
        node = CacheNode(tiny_trace, NodeConfig(capacity_fraction=0.02))
        assert node.tracker is not None
        assert node._oid_list is node.tracker._env["_oids"]
        assert (node._oid_list, node._size_list) == tiny_trace.request_lists()

        n_objects = np.unique(tiny_trace.object_ids).shape[0]
        assert n_objects < tiny_trace.n_accesses  # objects repeat
        assert len(set(map(id, node._oid_list))) == n_objects
        assert len(set(map(id, node._size_list))) == n_objects

    def test_tracker_holds_no_per_request_array(self, tiny_trace):
        node = CacheNode(tiny_trace, NodeConfig(capacity_fraction=0.02))
        n = tiny_trace.n_accesses
        per_request = [
            name
            for name, value in vars(node.tracker).items()
            if isinstance(value, np.ndarray) and value.shape[:1] == (n,)
        ]
        assert per_request == []
