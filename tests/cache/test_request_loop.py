"""One request loop, four drivers: every path must count the same thing.

``repro.cache.simulator.replay_range`` is the repo's only copy of the
Fig.-4 step (``request_step`` is its single-request form).  The paths
that used to carry their own copy are now drivers of it, and this table
pins them to one another: for every registry policy × admission kind,

* ``simulate(use_segments=False)``            — the loop over ``[0, n)``,
* ``scenario.oracle.run_oracle``              — the loop once per phase,
* ``cluster.CacheNode.request`` (one-node tier) — the single-request step,
* ``server.node.CacheNode.process_batch``     — the loop once per
  micro-batch (sizes 1, 7 and 256 in rotation), verdicts handed over in
  a column,

produce identical :class:`~repro.cache.base.CacheStats`.

Comparisons between genuinely different code stay where they were: served
vs ``replay_offline`` (batched vs per-row inference) in
``tests/server/test_node.py``, segmented vs loop (``access_batch`` vs the
loop) in ``tests/cache/test_segments.py``, fast vs reference
classification in ``tests/core/test_online.py``.
"""

from itertools import cycle

import pytest

import repro.scenario.oracle as oracle_module
from repro.cache.lru import LRUCache
from repro.cache.simulator import POLICY_REGISTRY, make_policy, simulate
from repro.cluster import CacheNode as ClusterNode
from repro.cluster import TwoTierCluster, simulate_cluster
from repro.core.admission import OracleAdmission
from repro.core.history_table import HistoryTable
from repro.core.labeling import one_time_labels
from repro.core.online import OnlineClassifierAdmission, OnlineFeatureTracker
from repro.scenario import ScenarioSpec
from repro.scenario.oracle import node_capacity_bytes, run_oracle
from repro.server.node import CacheNode as ServedNode
from repro.server.node import NodeConfig, history_capacity

BATCH_SIZES = (1, 7, 256)


def serve_all(node) -> list[dict]:
    """Drive a served node over its whole trace in rotating batch sizes."""
    n = node.trace.n_accesses
    replies = []
    lo = 0
    for batch in cycle(BATCH_SIZES):
        if lo >= n:
            break
        replies += node.process_batch(list(range(lo, min(lo + batch, n))))
        lo += batch
    return replies


def scenario_spec(trace, policy):
    return ScenarioSpec(
        nodes=1, requests=trace.n_accesses, policy=policy, oc_capacity_fraction=0.05
    )


@pytest.fixture(scope="module")
def capacity(tiny_trace):
    return node_capacity_bytes(scenario_spec(tiny_trace, "lru"), tiny_trace)


@pytest.fixture(scope="module")
def served(tiny_trace, capacity):
    """``classifier on?`` → one served node, shared by every row.

    Each row swaps in its own policy, so only ``classifier`` matters here.
    """
    nodes = {
        on: ServedNode(
            tiny_trace,
            NodeConfig(
                capacity_fraction=None,
                capacity_bytes=capacity,
                dram_fraction=0.0,
                classifier=on,
            ),
        )
        for on in (False, True)
    }
    assert nodes[True].model is not None  # the classifier column must classify
    return nodes


@pytest.fixture(scope="module")
def admissions(tiny_trace, served):
    """Admission kind → factory of a *fresh* filter (each driver gets its own).

    ``classifier`` is the served node's own seed model and history sizing,
    run the offline way: per miss, one row at a time.
    """
    node = served[True]
    m = node.criteria.m_threshold
    labels = one_time_labels(tiny_trace.object_ids, m)
    return {
        "none": lambda: None,
        "oracle": lambda: OracleAdmission(labels),
        "classifier": lambda: OnlineClassifierAdmission(
            node.model,
            OnlineFeatureTracker(tiny_trace),
            m,
            HistoryTable(history_capacity(node.criteria)),
            timing_capacity=0,
        ),
    }


@pytest.mark.parametrize("kind", ["none", "oracle", "classifier"])
@pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
def test_all_drivers_agree(
    tiny_trace, capacity, served, admissions, monkeypatch, policy, kind
):
    trace = tiny_trace
    n = trace.n_accesses
    fresh_admission = admissions[kind]
    # Capacity-only construction everywhere (the registry contract): the
    # served node alone would hand ``learned`` the catalog's metadata.
    def fresh_policy():
        return make_policy(policy, capacity)

    ref = simulate(
        trace, fresh_policy(), admission=fresh_admission(), use_segments=False
    ).stats
    assert ref.requests == n and 0 < ref.hits < n

    # -- scenario oracle: the loop once per phase ---------------------------
    # The comparator builds its filter from the spec; hand it this row's.
    monkeypatch.setattr(
        oracle_module, "build_admission", lambda *_: fresh_admission()
    )
    spec = scenario_spec(trace, policy)
    phases = run_oracle(spec, trace, None, [0, n // 3, n // 3 + 1, n], 0)
    assert sum(p["requests"] for p in phases) == ref.requests
    assert sum(p["hits"] for p in phases) == ref.hits
    assert sum(p["writes"] for p in phases) == ref.files_written

    # -- one-node cluster tier: the single-request step ---------------------
    oc = ClusterNode("oc0", fresh_policy(), fresh_admission())
    result = simulate_cluster(
        trace, TwoTierCluster({"oc0": oc}, ClusterNode("dc", LRUCache(capacity)))
    )
    assert oc.stats == ref
    assert result.oc_hits == ref.hits

    # -- served node: the loop once per micro-batch -------------------------
    node = served[kind != "none"]
    if kind == "oracle":
        # The node replays through whatever filter sits here; its own
        # classifier still runs and its verdict column goes unread.
        monkeypatch.setattr(node, "admission", fresh_admission())
    node.reset()
    node.cache = fresh_policy()
    replies = serve_all(node)
    assert node.stats == ref
    # Everything derived from the loop's outcomes tells the same story.
    assert sum(r["hit"] for r in replies) == ref.hits
    assert sum(r["admitted"] for r in replies) == ref.files_written
    assert sum(r["denied"] for r in replies) == ref.admissions_denied
    assert int(node.denied_mask.sum()) == ref.admissions_denied
    assert node.ledger.total_writes == ref.files_written
    assert node.ledger.avoided_writes == ref.admissions_denied


@pytest.mark.parametrize("dram_fraction", [0.05, 0.0])
@pytest.mark.parametrize("classifier", [False, True])
def test_served_staging_counts_and_attributes_deferred_writes(
    tiny_trace, capacity, classifier, dram_fraction
):
    """A staging L2 pays some flash writes on a *hit* (the promotion it
    deferred at miss time).  Behind the node's DRAM tier or bare, every one
    of them reaches the stats and the ledger, under its own cause."""
    node = ServedNode(
        tiny_trace,
        NodeConfig(
            policy="staging",
            capacity_fraction=None,
            capacity_bytes=capacity,
            dram_fraction=dram_fraction,
            classifier=classifier,
        ),
    )
    replies = serve_all(node)
    staging = node.cache.ssd if dram_fraction else node.cache
    assert staging.promotions > 0
    assert node.stats.files_written == staging.promotions + staging.direct_admits
    causes = node.ledger.writes_by_cause()
    assert causes.get("staging_promote", 0) == staging.promotions
    assert causes.get("admission_accept", 0) == staging.direct_admits
    assert node.ledger.total_writes == node.stats.files_written
    assert node.ledger.total_bytes == node.stats.bytes_written
    # The replies tell the same story: a promotion is a hit that admitted.
    assert sum(r["hit"] and r["admitted"] for r in replies) == staging.promotions
