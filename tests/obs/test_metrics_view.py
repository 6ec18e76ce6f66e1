"""The registry is a view: one copy of every count, read when rendered.

* **Same surface** — the ``/metrics`` text of a pinned replay is
  byte-identical to the text recorded before the counts stopped being
  pushed (``golden_node_metrics.prom``).
* **The view is exact** — after any mix of batches, ``RESET`` and model
  swaps every derived sample equals its owner's attribute, and the
  ``STATS`` payload carries the registry's own snapshot.
* **A gate in counts, not clocks** — registry writes per micro-batch are
  pinned as exact integers, so the per-batch fixed cost cannot grow back
  unnoticed.
* **RESET cannot desynchronise the surfaces** — the three drifts a shared,
  zeroable registry used to allow (connections gauge, retrain counter,
  model version) are pinned over real TCP.
"""

import asyncio
import inspect
from collections import Counter as Tally
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.server.node as node_module
from repro.cache.lru import LRUCache
from repro.cluster import CacheNode as ClusterNode
from repro.cluster import TwoTierCluster
from repro.obs import registry as registry_module
from repro.obs.drift import DriftMonitor
from repro.obs.ledger import WriteLedger
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import DecisionTrace
from repro.server.metrics import metrics_snapshot
from repro.server.node import CacheNode, CacheNodeServer, NodeConfig
from repro.server.retrainer import Retrainer
from tests.obs.pinned_replay import Sink, drive, pinned_exposition, pinned_stack
from tests.server.wire import Client

GOLDEN = Path(__file__).with_name("golden_node_metrics.prom")
CFG = NodeConfig(capacity_fraction=0.02)


def test_exposition_is_byte_identical_to_the_pushed_registry(tiny_trace):
    assert pinned_exposition(tiny_trace) == GOLDEN.read_text(encoding="utf-8")


# -- the view is exact -------------------------------------------------------


def samples(registry, name: str) -> dict:
    """``{label values: value}`` of one family (``()`` when unlabelled)."""
    return {key: child.value for key, child in registry.get(name).children()}


def assert_view_matches_owners(node, server, retrainer) -> None:
    reg, stats, ledger = node.registry, node.stats, node.ledger
    assert samples(reg, "repro_requests_total") == {
        ("hit",): stats.hits, ("miss",): stats.misses,
    }
    assert samples(reg, "repro_bytes_total") == {
        ("hit",): stats.bytes_hit,
        ("miss",): stats.bytes_requested - stats.bytes_hit,
    }
    assert reg.get("repro_ssd_writes_total").value == stats.files_written
    assert reg.get("repro_ssd_bytes_written_total").value == stats.bytes_written
    assert reg.get("repro_evictions_total").value == stats.evictions
    assert samples(reg, "repro_admission_verdicts_total") == {
        ("denied",): stats.admissions_denied,
        ("rectified",): node.rectified_admits,
    }
    assert reg.get("repro_trace_position").value == node.processed
    assert reg.get("repro_model_version").value == node.model_version
    tracer = node.tracer
    assert samples(reg, "repro_decision_trace_events") == {
        ("seen",): tracer.seen,
        ("sampled",): tracer.sampled,
        ("dropped",): tracer.dropped,
    }
    assert samples(reg, "repro_spans") == dict.fromkeys(
        [("recorded",), ("buffered",), ("dropped",)], 0
    )
    assert samples(reg, "repro_reservoir_seen") == {
        ("t_classify",): node.classify_timing.count,
        ("service_latency",): server.service_latencies.count,
    }
    assert samples(reg, "repro_reservoir_retained") == {
        ("t_classify",): node.classify_timing.retained,
        ("service_latency",): server.service_latencies.retained,
    }
    assert reg.get("repro_queue_depth").value == server.queue_depth
    assert reg.get("repro_connections").value == len(server._connections)
    assert samples(reg, "repro_ledger_writes_total") == ledger._writes
    assert samples(reg, "repro_ledger_write_bytes_total") == ledger._bytes
    assert sum(samples(reg, "repro_ledger_writes_total").values()) == (
        stats.files_written
    )
    assert samples(reg, "repro_ledger_avoided_writes_total") == {
        (model,): n for model, n in ledger.avoided_by_model().items()
    }
    assert sum(samples(reg, "repro_ledger_avoided_bytes_total").values()) == (
        ledger.avoided_bytes
    )
    drift = node.drift
    assert reg.get("repro_drift_alarms_total").value == drift.alarms
    assert reg.get("repro_matured_verdicts_total").value == drift.matured
    assert reg.get("repro_admission_accuracy_last").value == (
        drift.last_accuracy or 0.0
    )
    assert reg.get("repro_admission_accuracy_worst").value == (
        drift.worst_accuracy or 0.0
    )
    outcomes = Tally(
        "yes" if rec["trained"] else "no" for rec in retrainer.history
    )
    assert samples(reg, "repro_retrains_total") == {
        (outcome,): n for outcome, n in outcomes.items()
    }
    history = retrainer.history
    scored = [r for r in history if r["worst_window_accuracy"] is not None]
    assert reg.get("repro_retrain_train_samples").value == (
        history[-1]["n_train"] if history else 0
    )
    assert reg.get("repro_retrain_worst_window_accuracy").value == (
        scored[-1]["worst_window_accuracy"] if scored else 0
    )
    stats_payload = metrics_snapshot(node, server)
    assert stats_payload["metrics"] == reg.snapshot()
    if server.retrainer is not None:
        assert stats_payload["retrains"] == outcomes["yes"]


STEP = st.one_of(
    st.integers(min_value=1, max_value=300),  # a micro-batch of this size
    st.sampled_from(["reset", "install"]),
)


@settings(max_examples=15, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=12))
def test_every_derived_sample_equals_its_owner(tiny_trace, steps):
    node = CacheNode(
        tiny_trace, CFG, tracer=DecisionTrace(capacity=64, sample_rate=0.5)
    )
    node.drift = DriftMonitor(
        node.criteria.m_threshold, window_size=100, alarm_threshold=0.9,
        registry=node.registry,
    )
    retrainer = Retrainer(node)
    server = CacheNodeServer(node, retrainer=retrainer)  # never started
    sink = Sink()
    sink.send = lambda message: None
    assert_view_matches_owners(node, server, retrainer)
    for step in steps:
        if step == "reset":
            asyncio.run(server._dispatch({"op": "RESET"}, sink))
            assert node.processed == 0
        elif step == "install":
            node.install_model(node.model)
        else:
            lo = node.processed
            drive(server, lo, min(lo + step, tiny_trace.n_accesses), sink)
        assert_view_matches_owners(node, server, retrainer)


# -- a gate in counts, not clocks ----------------------------------------------


@pytest.fixture
def registry_writes(monkeypatch):
    """Counts every write into a registry child, by ``Kind.method``."""
    calls = Tally()
    for cls, methods in (
        (registry_module.Counter, ("inc",)),
        (registry_module.Gauge, ("set", "inc", "dec")),
        (registry_module.Histogram, ("observe", "observe_many")),
    ):
        for method in methods:
            real = getattr(cls, method)

            def counted(self, *args, _real=real, _key=f"{cls.__name__}.{method}"):
                calls[_key] += 1
                return _real(self, *args)

            monkeypatch.setattr(cls, method, counted)
    return calls


def writes_per_call(calls: Tally, fn, times: int) -> Tally:
    calls.clear()
    for _ in range(times):
        fn()
    assert all(n % times == 0 for n in calls.values()), calls
    return Tally({key: n // times for key, n in calls.items()})


@pytest.mark.parametrize(
    "classifier, expected",
    [
        (True, {"Histogram.observe_many": 1, "Histogram.observe": 3}),
        (False, {"Histogram.observe": 1}),
    ],
)
def test_registry_writes_per_apply_batch(
    tiny_trace, registry_writes, classifier, expected
):
    """``repro_classify_seconds`` plus the three stage histograms with the
    classifier, ``cache_ops`` alone without — and no counter or gauge."""
    node = CacheNode(
        tiny_trace,
        NodeConfig(capacity_fraction=0.02, classifier=classifier),
        tracer=DecisionTrace(capacity=64),
    )
    node.drift = (
        DriftMonitor(node.criteria.m_threshold, window_size=10**9)
        if classifier
        else None
    )

    def batch():
        lo = node.processed
        node.apply_batch(list(range(lo, lo + 50)))

    assert writes_per_call(registry_writes, batch, 20) == expected


def test_registry_writes_per_server_process(tiny_trace, registry_writes):
    """The node's four, plus latency, ``queue_wait`` and ``reply``."""
    node = CacheNode(tiny_trace, CFG)
    server = CacheNodeServer(node)

    def process():
        drive(server, node.processed, node.processed + 50)

    assert writes_per_call(registry_writes, process, 20) == {
        "Histogram.observe_many": 1 + 2,
        "Histogram.observe": 3 + 1,
    }


def test_no_registry_writes_per_cluster_request(tiny_trace, registry_writes):
    registry = MetricsRegistry()
    oc = ClusterNode("oc0", LRUCache(50_000))
    cluster = TwoTierCluster({"oc0": oc}, ClusterNode("dc", LRUCache(500_000)))
    ledger = WriteLedger(registry=registry)
    for node in (oc, cluster.dc):
        node.bind_ledger(ledger)
    oids = tiny_trace.object_ids.tolist()
    sizes = tiny_trace.catalog["size"][tiny_trace.object_ids].tolist()
    for i in range(500):
        oc.request(i, oids[i], sizes[i]) or cluster.dc.fill(i, oids[i], sizes[i])
    assert oc.stats.files_written and cluster.dc.stats.files_written
    assert not registry_writes
    written = registry.get("repro_ledger_writes_total").children()
    assert sum(child.value for _, child in written) == (
        oc.stats.files_written + cluster.dc.stats.files_written
    )


# -- RESET cannot desynchronise the surfaces ---------------------------------------


def test_reset_keeps_the_connections_gauge_true(tiny_trace):
    """Parent: RESET zeroed the pushed gauge under an open connection, which
    then read 0 and, once the connection closed, -1."""

    async def run():
        node = CacheNode(tiny_trace, CFG)
        server = CacheNodeServer(node, port=0)
        await server.start()
        gauge = node.registry.get("repro_connections")
        client = await Client.connect(server.port)
        assert (await client.ask({"op": "RESET"}))["ok"]
        open_now = gauge.value
        in_stats = (await client.ask({"op": "STATS"}))["stats"]["metrics"]
        await client.close()
        for _ in range(100):
            if not server._connections:
                break
            await asyncio.sleep(0.01)
        closed = gauge.value
        await server.shutdown()
        return open_now, in_stats["repro_connections"]["values"], closed

    open_now, in_stats, closed = asyncio.run(run())
    assert open_now == 1
    assert in_stats == [{"labels": {}, "value": 1.0}]
    assert closed == 0


def test_reset_keeps_retrains_total_equal_to_stats(tiny_trace):
    """Parent: RESET restarted ``repro_retrains_total`` while
    ``STATS["retrains"]`` kept counting from ``Retrainer.history``."""

    async def run():
        node = CacheNode(tiny_trace, CFG)
        retrainer = Retrainer(node)
        server = CacheNodeServer(node, port=0)
        await server.start()
        server.retrainer = retrainer  # after start: RELOAD only, no schedule
        client = await Client.connect(server.port)
        await client.get(range(2_000))
        assert (await client.ask({"op": "RELOAD"}))["trained"]
        assert (await client.ask({"op": "RESET"}))["ok"]
        await client.get(range(2_000))
        assert (await client.ask({"op": "RELOAD"}))["trained"]
        stats = (await client.ask({"op": "STATS"}))["stats"]
        await client.close()
        await server.shutdown()
        return stats

    stats = asyncio.run(run())
    (trained,) = [
        v["value"]
        for v in stats["metrics"]["repro_retrains_total"]["values"]
        if v["labels"] == {"trained": "yes"}
    ]
    assert trained == stats["retrains"] == 2


def test_model_version_gauge_needs_no_push(tiny_trace):
    node = CacheNode(tiny_trace, CFG)
    gauge = node.registry.get("repro_model_version")
    assert gauge.value == node.model_version == 1
    node.install_model(node.model)
    assert gauge.value == node.model_version == 2
    node.reset()
    assert gauge.value == node.model_version == 2
    node.registry.reset()
    assert gauge.value == 2
    assert "_m_model_version" not in inspect.getsource(node_module)


def test_pinned_stack_reads_back_through_every_owner(tiny_trace):
    """The golden replay's own stack, checked sample by sample."""
    node, server, retrainer = pinned_stack(tiny_trace)
    node.tracer = DecisionTrace(capacity=1)
    assert_view_matches_owners(node, server, retrainer)
