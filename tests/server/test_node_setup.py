"""The served node's start-up, pinned as exact counts.

Building a node (or its offline twin) reads each per-request statistic
once: one next-use pass feeds both the §4.3 criterion and the seed model's
labels, and the footprint and mean object size come from one mask over the
catalog, so no ``np.unique`` sorts the requests.
"""

import numpy as np
import pytest

import repro.core.labeling as labeling
from repro.server.node import CacheNode, NodeConfig, replay_offline

CFG = NodeConfig(capacity_fraction=0.02)

BUILDS = {
    "node": lambda trace: CacheNode(trace, CFG),
    "replay_offline": lambda trace: replay_offline(trace, CFG),
}


@pytest.fixture
def fresh_trace(tiny_trace):
    # A copy without memos, so the node computes every statistic itself.
    return tiny_trace.slice_time(-np.inf, np.inf)


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_one_next_use_pass(monkeypatch, fresh_trace, build):
    passes = []
    real = labeling.compute_next_use

    def counting(object_ids):
        passes.append(len(object_ids))
        return real(object_ids)

    monkeypatch.setattr(labeling, "compute_next_use", counting)
    built = BUILDS[build](fresh_trace)
    assert passes == [fresh_trace.n_accesses]
    if build == "node":
        assert built.model is not None


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_no_unique_over_the_requests(monkeypatch, fresh_trace, build):
    lengths = []
    real = np.unique

    def recording(ar, *args, **kwargs):
        lengths.append(np.asarray(ar).size)
        return real(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", recording)
    BUILDS[build](fresh_trace)
    n = fresh_trace.n_accesses
    prefix = int(np.searchsorted(fresh_trace.timestamps, CFG.train_seconds))
    assert 0 < prefix < n
    # The seed model's own label checks still run, on its training day only.
    assert lengths and max(lengths) <= prefix
