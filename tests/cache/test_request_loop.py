"""One request loop, four drivers: every path must count the same thing.

``repro.cache.simulator.replay_range`` is the repo's only copy of the
Fig.-4 step (``request_step`` is its single-request form).  The paths
that used to carry their own copy are now drivers of it, and this table
pins them to one another: for every registry policy × admission kind,

* ``simulate(use_segments=False)``            — the loop over ``[0, n)``,
* ``scenario.oracle.run_oracle``              — the loop once per phase,
* ``cluster.CacheNode.request`` (one-node tier) — the single-request step,
* ``server.node.CacheNode.process_batch``     — the loop once per
  micro-batch (sizes 1, 7 and 256 in rotation), asking the same per-miss
  admission the offline replay asks,

produce identical :class:`~repro.cache.base.CacheStats` — and the two node
types, which both keep a write ledger, book every write under the same
cause (:func:`repro.obs.ledger.write_cause` is their one rule).

The served node classifies inside that loop, at miss time, so nothing about
a batch is decided before it runs.  ``test_served_batch_boundaries_are_invisible``
pins the two cases a look-ahead over the batch would get wrong — an object
resident when the batch starts that is evicted and re-requested inside it,
and one inserted and hit inside it — on a hand-built trace, at batch sizes
1, 3, 7 and 256.

The loop's own accounting is pinned as well: its counts are
``CacheStats.record`` folded over the outcomes it hands back — also when
an observer or the policy raises mid-replay — and ``AccessResult`` keeps
its value contract (immutable, hashable, picklable; shared ``HIT`` /
``MISS``).

Comparisons between genuinely different code stay where they were:
segmented vs loop (``access_batch`` vs the loop) in
``tests/cache/test_segments.py``, fast vs reference classification in
``tests/core/test_online.py``.
"""

import copy
import pickle
from itertools import cycle

import numpy as np
import pytest

import repro.scenario.oracle as oracle_module
from repro.cache.base import HIT, MISS, AccessResult, CacheObserver, CacheStats
from repro.cache.hierarchy import HierarchicalCache
from repro.cache.lru import LRUCache
from repro.cache.simulator import POLICY_REGISTRY, make_policy, replay_range, simulate
from repro.cluster import CacheNode as ClusterNode
from repro.cluster import TwoTierCluster, simulate_cluster
from repro.core.admission import OracleAdmission
from repro.core.history_table import HistoryTable
from repro.core.labeling import one_time_labels
from repro.core.online import OnlineClassifierAdmission, OnlineFeatureTracker
from repro.obs.ledger import WriteLedger
from repro.scenario import ScenarioSpec
from repro.scenario.oracle import node_capacity_bytes, run_oracle
from repro.server.node import CacheNode as ServedNode
from repro.server.node import (
    NodeConfig,
    build_cache,
    classifier_admission,
    history_capacity,
    replay_offline,
)
from repro.trace.records import ACCESS_DTYPE, CATALOG_DTYPE, Trace

BATCH_SIZES = (1, 7, 256)


def serve_all(node, step=None) -> list:
    """Drive a served node over its whole trace in rotating batch sizes.

    Returns what ``step`` (default ``process_batch``: reply dicts; or
    ``apply_batch``: ``(result, denied)`` outcomes) gives per request.
    """
    step = step or node.process_batch
    n = node.trace.n_accesses
    replies = []
    lo = 0
    for batch in cycle(BATCH_SIZES):
        if lo >= n:
            break
        replies += step(list(range(lo, min(lo + batch, n))))
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
    oc.bind_ledger(WriteLedger())
    result = simulate_cluster(
        trace, TwoTierCluster({"oc0": oc}, ClusterNode("dc", LRUCache(capacity)))
    )
    assert oc.stats == ref
    assert result.oc_hits == ref.hits

    # -- served node: the loop once per micro-batch -------------------------
    node = served[kind != "none"]
    if kind == "oracle":
        # The node replays through whatever filter sits here; its own
        # classifier is simply never asked.
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
    # Both node types choose each write's cause by the one rule.
    assert node.ledger.writes_by_cause() == oc.ledger.writes_by_cause()
    assert node.ledger.bytes_by_cause() == oc.ledger.bytes_by_cause()


# -- loop accounting: replay_range's counts are CacheStats.record's --------


def fold_outcomes(sizes, outcomes, lo: int, warm_start: int) -> CacheStats:
    """The per-request form: ``CacheStats.record`` over every outcome at or
    past ``warm_start`` (position ``lo`` is ``outcomes[0]``)."""
    stats = CacheStats()
    for i, (size, (result, denied)) in enumerate(zip(sizes, outcomes), lo):
        if i >= warm_start:
            stats.record(size, result, denied)
    return stats


class RaiseOnInsert(CacheObserver):
    """An observer that fails on its ``k``-th insert."""

    def __init__(self, k: int):
        self.k = k
        self.inserts = 0

    def on_insert(self, oid: int, size: int) -> None:
        self.inserts += 1
        if self.inserts == self.k:
            raise RuntimeError("device write failed")

    def on_evict(self, oid: int) -> None:
        pass


@pytest.mark.parametrize("third", [0, 1], ids=["warm0", "warm_n/3"])
@pytest.mark.parametrize("kind", ["none", "classifier"])
@pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY) + ["belady"])
def test_loop_counts_equal_record_fold(
    tiny_trace, capacity, admissions, policy, kind, third
):
    """The loop's counters are exactly ``CacheStats.record`` folded over
    the outcomes it hands back: ``hit`` and ``inserted`` independent (a
    staging promote is both), evictions counted on hits too (S3LRU), and
    nothing before ``warm_start``."""
    trace = tiny_trace
    n = trace.n_accesses
    warm_start = third * n // 3
    sizes = trace.sizes.tolist()
    stats, outcomes = CacheStats(), []
    replay_range(
        # Capacity-only construction, as in the table above; belady needs
        # the trace for its oracle.
        make_policy(policy, capacity, trace if policy == "belady" else None),
        admissions[kind](), None, stats,
        trace.object_ids, trace.sizes, 0, n,
        warm_start=warm_start, outcomes=outcomes,
    )
    assert len(outcomes) == n
    assert stats == fold_outcomes(sizes, outcomes, 0, warm_start)
    assert stats.requests == n - warm_start
    if kind == "classifier":
        assert stats.admissions_denied > 0
    # The two rows the independence rules exist for do exercise them.
    if policy == "staging":
        assert any(r.hit and r.inserted for r, _ in outcomes[warm_start:])
    if policy == "s3lru":
        assert any(r.hit and r.evicted for r, _ in outcomes[warm_start:])


@pytest.mark.parametrize("warm_start", [0, 500])
@pytest.mark.parametrize("kind", ["none", "classifier"])
def test_raising_observer_leaves_the_counts_up_to_its_request(
    tiny_trace, capacity, admissions, kind, warm_start
):
    """An observer that raises on the k-th insert leaves ``stats`` counting
    exactly the requests up to and including the one it failed on."""
    trace = tiny_trace
    n = trace.n_accesses
    sizes = trace.sizes.tolist()
    ref, outcomes = CacheStats(), []
    replay_range(
        LRUCache(capacity), admissions[kind](), None, ref,
        trace.object_ids, trace.sizes, 0, n, outcomes=outcomes,
    )
    k = 300
    inserts = [i for i, (r, _) in enumerate(outcomes) if r.inserted]
    failed_at = inserts[k - 1]
    assert warm_start < failed_at < n - 1

    stats = CacheStats()
    with pytest.raises(RuntimeError, match="device write failed"):
        replay_range(
            LRUCache(capacity), admissions[kind](), RaiseOnInsert(k), stats,
            trace.object_ids, trace.sizes, 0, n, warm_start=warm_start,
        )
    expected = fold_outcomes(sizes, outcomes[: failed_at + 1], 0, warm_start)
    assert stats == expected
    assert stats.requests == failed_at + 1 - warm_start


def test_raising_policy_leaves_the_counts_before_its_request(tiny_trace, capacity):
    """A request the policy rejects (size 0) is not counted; everything
    before it is."""
    trace = tiny_trace
    n = trace.n_accesses
    oids, sizes = trace.object_ids.tolist(), trace.sizes.tolist()
    bad = n // 2
    ref, outcomes = CacheStats(), []
    replay_range(
        LRUCache(capacity), None, None, ref, oids, sizes, 0, bad,
        outcomes=outcomes,
    )
    sizes[bad] = 0
    stats = CacheStats()
    with pytest.raises(ValueError, match="object size must be positive"):
        replay_range(LRUCache(capacity), None, None, stats, oids, sizes, 0, n)
    assert stats == ref == fold_outcomes(sizes, outcomes, 0, 0)
    assert stats.requests == bad


@pytest.mark.parametrize("driver", ["served+dram", "served", "cluster+dram"])
def test_every_driver_books_eviction_churn(tiny_trace, capacity, driver):
    """A learned eviction head re-admitting its own victim pays for a
    misprediction: the insert's ``AccessResult.churn`` reaches the ledger
    through the micro-batch (which only sees outcomes) and through a DRAM
    tier in front of the policy, on either node type.  The served node
    equals its offline replay through that head, and every ``churn=True``
    result is an insert."""
    if driver == "cluster+dram":
        learned = make_policy("learned", capacity)
        node = ClusterNode("oc0", HierarchicalCache.with_lru_dram(learned))
        node.bind_ledger(WriteLedger())
        simulate_cluster(
            tiny_trace,
            TwoTierCluster({"oc0": node}, ClusterNode("dc", LRUCache(capacity))),
        )
    else:
        dram_fraction = 0.05 if driver == "served+dram" else 0.0
        cfg = NodeConfig(
            policy="learned",
            capacity_fraction=None,
            capacity_bytes=capacity,
            dram_fraction=dram_fraction,
            classifier=False,
        )
        node = ServedNode(tiny_trace, cfg)
        outcomes = serve_all(node, node.apply_batch)
        assert node.stats == replay_offline(tiny_trace, cfg).stats
        assert all(result.inserted for result, _ in outcomes if result.churn)
        learned = node.cache.ssd if dram_fraction else node.cache
    causes = node.ledger.writes_by_cause()
    assert learned.churn_inserts > 0
    assert causes["eviction_churn"] == learned.churn_inserts
    assert causes["admission_accept"] == (
        node.stats.files_written - learned.churn_inserts
    )


# -- the AccessResult contract ---------------------------------------------


def test_shared_hit_and_miss_have_the_documented_fields():
    assert (HIT.hit, HIT.inserted, HIT.evicted, HIT.churn) == (True, False, (), False)
    assert (MISS.hit, MISS.inserted, MISS.evicted, MISS.churn) == (
        False, False, (), False,
    )
    assert HIT == AccessResult(hit=True) and MISS == AccessResult(hit=False)


@pytest.mark.parametrize(
    "result",
    [HIT, MISS, AccessResult(hit=False, inserted=True, evicted=(3, 1), churn=True)],
    ids=["HIT", "MISS", "insert"],
)
def test_access_result_is_an_immutable_value(result):
    for field in ("hit", "inserted", "evicted", "churn"):
        with pytest.raises(AttributeError):
            setattr(result, field, getattr(result, field))
    with pytest.raises(AttributeError):
        result.extra = 1
    twin = AccessResult(result.hit, result.inserted, result.evicted, result.churn)
    assert twin == result and hash(twin) == hash(result)
    assert len({result, twin}) == 1
    assert AccessResult(not result.hit) != result
    for clone in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
        assert clone == result and type(clone) is AccessResult


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


# -- batch boundaries: nothing about a batch is decided before it runs -----

CHURN_CYCLE, CHURN_BURSTS, CHURN_BLOCKS = 11, 4, 40
CHURN_CFG = NodeConfig(
    capacity_fraction=None, capacity_bytes=10_000, dram_fraction=0.0
)


@pytest.fixture(scope="module")
def churn_trace():
    """Hand-built churn over a ten-object LRU (every object is 1000 bytes).

    Each block requests an 11-object cycle twice — one more than fits, so
    every one of them misses and, second time round, evicts exactly the
    object requested next — then
    one "burst" object twice in a row (inserted, then hit), then four new
    objects of a cold owner and the first of them again: three in four never
    return, so they are denied on sight, and the one that does is the
    history table's to rectify.
    """
    seq = []
    cold = CHURN_CYCLE + CHURN_BURSTS
    for block in range(CHURN_BLOCKS):
        seq += 2 * list(range(CHURN_CYCLE))
        seq += [CHURN_CYCLE + block % CHURN_BURSTS] * 2
        seq += [cold, cold + 1, cold + 2, cold + 3, cold]
        cold += 4
    accesses = np.zeros(len(seq), dtype=ACCESS_DTYPE)
    accesses["timestamp"] = 2.0 * np.arange(len(seq))
    accesses["object_id"] = seq
    catalog = np.zeros(cold, dtype=CATALOG_DTYPE)
    catalog["size"] = 1000
    catalog["owner_id"] = np.arange(cold) >= CHURN_CYCLE + CHURN_BURSTS
    catalog["upload_time"] = -5000.0
    return Trace(
        accesses,
        catalog,
        owner_active_friends=np.array([40.0, 2.0]),
        owner_avg_views=np.array([60.0, 1.0]),
        duration=2.0 * len(seq),
    )


def boundary_cases(oids, outcomes, batch: int) -> tuple[bool, bool]:
    """Does a partition into ``batch``-sized runs contain (an object resident
    at a run's start that misses inside it, an object inserted and then hit
    inside one run)?  Residency is rebuilt from the outcomes alone."""
    resident: set[int] = set()
    evicted_and_rerequested = inserted_and_hit = False
    for lo in range(0, len(oids), batch):
        at_start, inserted_here = set(resident), set()
        for oid, (result, _) in zip(oids[lo:lo + batch], outcomes[lo:lo + batch]):
            evicted_and_rerequested |= not result.hit and oid in at_start
            inserted_and_hit |= result.hit and oid in inserted_here
            resident.difference_update(result.evicted)
            if result.inserted:
                resident.add(oid)
                inserted_here.add(oid)
    return evicted_and_rerequested, inserted_and_hit


@pytest.mark.parametrize("batch", [1, 3, 7, 256])
def test_served_batch_boundaries_are_invisible(churn_trace, batch):
    trace = churn_trace
    n = trace.n_accesses
    node = ServedNode(trace, CHURN_CFG)
    assert node.model is not None

    # The offline replay, keeping what replay_offline() throws away: the
    # admission (for its counters) and the per-request outcomes.
    admission = classifier_admission(trace, node.criteria, node.model)
    ref, outcomes = CacheStats(), []
    replay_range(
        build_cache(trace, CHURN_CFG), admission, None, ref,
        trace.object_ids, trace.sizes, 0, n, outcomes=outcomes,
    )
    assert ref == replay_offline(trace, CHURN_CFG).stats
    assert ref.hits and ref.admissions_denied and admission.rectified_admits
    # The trace does what it was built for, at every size that can show it.
    cases = boundary_cases(trace.object_ids.tolist(), outcomes, batch)
    assert cases == ((True, True) if batch > 1 else (False, False))

    replies = []
    for lo in range(0, n, batch):
        replies += node.process_batch(list(range(lo, min(lo + batch, n))))
    assert node.stats == ref
    assert node.rectified_admits == admission.rectified_admits
    assert [r["hit"] for r in replies] == [result.hit for result, _ in outcomes]
    assert [r["admitted"] for r in replies] == [r.inserted for r, _ in outcomes]
    assert node.denied_mask.tolist() == [denied for _, denied in outcomes]
    assert node.ledger.total_writes == ref.files_written
    assert node.ledger.total_bytes == ref.bytes_written
    assert node.ledger.avoided_writes == ref.admissions_denied
    # One decision per miss, none for a hit.
    assert node.classify_timing.count == admission.decisions == n - ref.hits
