"""Observability threaded through the live serving stack.

Acceptance properties from the observability work:

* the TCP ``TRACE`` verb drains sampled decision events;
* ``/statsz`` and the TCP ``STATS`` verb render identical numbers;
* live ``repro_admission_accuracy`` gauges match the offline
  ``evaluate_admission_decisions`` scorer on the same trace;
* a deliberately degraded model fires the drift alarm;
* a ≥200k-request replay keeps every timing structure at its configured
  capacity.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.labeling import ONE_TIME
from repro.core.monitoring import evaluate_admission_decisions
from repro.obs.drift import DriftMonitor
from repro.obs.tracing import DecisionTrace
from repro.server.loadgen import LoadgenConfig, fetch_stats, run_loadgen
from repro.server.node import CacheNode, CacheNodeServer, NodeConfig
from repro.server.protocol import read_message, write_message

CFG = NodeConfig(capacity_fraction=0.02)


def replay_node(node, chunk=256):
    n = node.trace.n_accesses
    i = 0
    while i < n:
        j = min(i + chunk, n)
        node.process_batch(list(range(i, j)))
        i = j


async def tcp_request(port, message):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await write_message(writer, message)
        return await read_message(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def http_get_json(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


class TestTraceVerb:
    def test_trace_drains_sampled_events(self, tiny_trace):
        async def run():
            tracer = DecisionTrace(capacity=10_000, sample_rate=1.0)
            node = CacheNode(tiny_trace, CFG, tracer=tracer)
            server = CacheNodeServer(node, port=0)
            await server.start()
            result = await run_loadgen(
                tiny_trace,
                LoadgenConfig(
                    port=server.port, rate=50_000, connections=4,
                    limit=500, fetch_stats=False,
                ),
            )
            assert result.errors == 0
            full = await tcp_request(server.port, {"op": "TRACE"})
            limited = await tcp_request(
                server.port, {"op": "TRACE", "limit": 10}
            )
            drained = await tcp_request(
                server.port, {"op": "TRACE", "clear": True}
            )
            after_clear = await tcp_request(server.port, {"op": "TRACE"})
            await server.shutdown()
            return full, limited, drained, after_clear

        full, limited, drained, after_clear = asyncio.run(run())
        assert full["ok"] and full["op"] == "TRACE"
        assert full["seen"] == 500 and full["sampled"] == 500
        assert len(full["events"]) == 500
        # Events arrive oldest-first in trace order with the full schema.
        indices = [e["index"] for e in full["events"]]
        assert indices == sorted(indices)
        first = full["events"][0]
        assert first["index"] == 0 and not first["hit"]
        assert isinstance(first["features"], list)
        assert first["t_classify"] > 0
        assert set(first) >= {"object_id", "verdict", "denied", "rectified"}
        assert [e["index"] for e in limited["events"]] == indices[-10:]
        assert len(drained["events"]) == 500
        assert after_clear["events"] == []
        assert after_clear["seen"] == 500  # counters survive the drain

    def test_trace_without_tracer_errors(self, tiny_trace):
        async def run():
            node = CacheNode(tiny_trace, CFG)
            server = CacheNodeServer(node, port=0)
            await server.start()
            msg = await tcp_request(server.port, {"op": "TRACE"})
            await server.shutdown()
            return msg

        msg = asyncio.run(run())
        assert not msg["ok"]
        assert "disabled" in msg["error"]

    def test_trace_bad_limit_rejected(self, tiny_trace):
        async def run():
            tracer = DecisionTrace(capacity=16)
            node = CacheNode(tiny_trace, CFG, tracer=tracer)
            server = CacheNodeServer(node, port=0)
            await server.start()
            neg = await tcp_request(server.port, {"op": "TRACE", "limit": -1})
            non_int = await tcp_request(
                server.port, {"op": "TRACE", "limit": "all"}
            )
            await server.shutdown()
            return neg, non_int

        neg, non_int = asyncio.run(run())
        assert not neg["ok"] and not non_int["ok"]

    def test_sampled_rate_traces_subset(self, tiny_trace):
        async def run():
            tracer = DecisionTrace(capacity=10_000, sample_rate=0.25)
            node = CacheNode(tiny_trace, CFG, tracer=tracer)
            server = CacheNodeServer(node, port=0)
            await server.start()
            await run_loadgen(
                tiny_trace,
                LoadgenConfig(
                    port=server.port, rate=50_000, connections=2,
                    limit=2000, fetch_stats=False,
                ),
            )
            msg = await tcp_request(server.port, {"op": "TRACE"})
            await server.shutdown()
            return msg

        msg = asyncio.run(run())
        assert msg["seen"] == 2000
        assert 0.15 < msg["sampled"] / 2000 < 0.35
        assert msg["sample_rate"] == 0.25


class TestDecisionEvents:
    """What a sampled event carries: the decision as it was made, if one was."""

    def test_misses_carry_the_decision_and_hits_carry_none(self, tiny_trace):
        from repro.core.online import OnlineFeatureTracker

        tracer = DecisionTrace(capacity=10_000, sample_rate=1.0)
        node = CacheNode(tiny_trace, CFG, tracer=tracer)
        n = 1500
        for lo in range(0, n, 7):
            node.process_batch(list(range(lo, min(lo + 7, n))))
        events = tracer.events()
        assert [e["index"] for e in events] == list(range(n))

        # The rows an independent tracker builds at the same positions.
        reference = OnlineFeatureTracker(tiny_trace)
        spent = 0.0
        for e in events:
            row = reference.features(e["index"]).tolist()
            reference.observe(e["index"])
            if e["hit"]:
                # Fig. 4 never asks on a hit.
                assert e["verdict"] is None and e["features"] is None
                assert e["t_classify"] == 0.0
                assert not e["denied"] and not e["rectified"]
            else:
                assert e["verdict"] in (0, 1) and e["features"] == row
                assert e["t_classify"] > 0
                assert e["rectified"] == (e["verdict"] == ONE_TIME and not e["denied"])
                assert e["verdict"] == ONE_TIME or not e["denied"]
                spent += e["t_classify"]
        misses = [e for e in events if not e["hit"]]
        assert len(misses) == n - node.stats.hits == node.classify_timing.count
        assert sum(e["denied"] for e in events) == node.stats.admissions_denied
        assert sum(e["rectified"] for e in events) == node.rectified_admits > 0
        # Captured at decision time: the per-decision times are the
        # admission's own clock reads, so they add up to its total.
        assert spent == pytest.approx(node.admission.decision_seconds)
        assert not node._captured    # drained with every batch

    def test_capture_code_exists_only_while_a_tracer_is_attached(self, tiny_trace):
        node = CacheNode(tiny_trace, CFG)
        node.process_batch(list(range(100)))
        assert "_capture" not in node.admission.source
        assert node.admission.capture is None and not node._captured

        node.tracer = DecisionTrace(sample_rate=0.0)   # attached, samples nothing
        node.process_batch(list(range(100, 200)))
        assert "_capture[index]" in node.admission.source
        node.tracer = None
        node.process_batch(list(range(200, 300)))
        assert "_capture" not in node.admission.source
        assert not node._captured


class TestStatszParity:
    def test_statsz_equals_tcp_stats(self, tiny_trace):
        async def run():
            node = CacheNode(tiny_trace, CFG, tracer=DecisionTrace())
            node.drift = DriftMonitor(
                node.criteria.m_threshold, window_size=500,
                registry=node.registry,
            )
            server = CacheNodeServer(node, port=0, metrics_port=0)
            await server.start()
            await run_loadgen(
                tiny_trace,
                LoadgenConfig(
                    port=server.port, rate=50_000, connections=4,
                    limit=1500, fetch_stats=False,
                ),
            )
            status, body = await http_get_json(server.exporter.port, "/statsz")
            via_http = json.loads(body)
            via_tcp = await fetch_stats("127.0.0.1", server.port)
            await server.shutdown()
            return status, via_http, via_tcp

        status, via_http, via_tcp = asyncio.run(run())
        assert status == 200
        # Identical snapshots modulo genuinely observer-dependent fields:
        # the uptime clock, the exporter's own request counter, and the
        # connection gauge (the TCP STATS read arrives over a connection
        # of its own; the HTTP one doesn't).
        for snap in (via_http, via_tcp):
            snap.pop("uptime_seconds")
            snap["metrics"].pop("repro_http_requests_total", None)
            snap["metrics"].pop("repro_connections", None)
        assert via_http == via_tcp
        assert via_tcp["processed"] == 1500
        assert via_tcp["drift"]["observed"] == 1500
        assert via_tcp["trace"]["seen"] == 1500

    def test_metrics_and_healthz_from_live_node(self, tiny_trace):
        async def run():
            node = CacheNode(tiny_trace, CFG)
            server = CacheNodeServer(node, port=0, metrics_port=0)
            await server.start()
            await run_loadgen(
                tiny_trace,
                LoadgenConfig(
                    port=server.port, rate=50_000, connections=2,
                    limit=800, fetch_stats=False,
                ),
            )
            _, metrics_body = await http_get_json(
                server.exporter.port, "/metrics"
            )
            health_status, health_body = await http_get_json(
                server.exporter.port, "/healthz"
            )
            await server.shutdown()
            return node, metrics_body.decode(), health_status, health_body

        node, text, health_status, health_body = asyncio.run(run())
        assert health_status == 200
        assert json.loads(health_body)["status"] == "ok"
        assert json.loads(health_body)["processed"] == 800

        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        assert samples['repro_requests_total{result="hit"}'] == node.stats.hits
        assert samples["repro_ssd_writes_total"] == node.stats.files_written
        assert samples["repro_trace_position"] == 800
        assert samples["repro_model_version"] == node.model_version
        assert samples["repro_service_latency_seconds_count"] == 800
        # t_classify is paid per decision, and Fig. 4 decides on misses only.
        assert samples["repro_classify_seconds_count"] == 800 - node.stats.hits
        # Exposition is structurally valid: HELP/TYPE pairs precede samples.
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_service_latency_seconds histogram" in text


class TestLiveDriftParity:
    def test_gauges_match_offline_scorer(self, tiny_trace):
        window = 500
        node = CacheNode(tiny_trace, CFG)
        assert node.model is not None
        monitor = DriftMonitor(
            node.criteria.m_threshold, window_size=window,
            registry=node.registry,
        )
        node.drift = monitor
        replay_node(node)
        monitor.finish()

        n = tiny_trace.n_accesses
        ref = evaluate_admission_decisions(
            tiny_trace.object_ids, node.denied_mask, node.criteria.m_threshold,
            window_size=window,
        )
        got = monitor.quality(n_total=n)
        np.testing.assert_array_equal(got.n_scored, ref.n_scored)
        np.testing.assert_allclose(got.accuracy, ref.accuracy, equal_nan=True)
        np.testing.assert_allclose(got.precision, ref.precision, equal_nan=True)
        np.testing.assert_allclose(got.recall, ref.recall, equal_nan=True)

        fam = node.registry.get("repro_admission_accuracy")
        finite = [w for w in range(len(ref.accuracy)) if np.isfinite(ref.accuracy[w])]
        assert finite, "trace too short to complete any window"
        for w in finite:
            assert fam.labels(window=str(w)).value == pytest.approx(
                ref.accuracy[w]
            )
        worst = min(ref.accuracy[w] for w in finite)
        assert node.registry.get(
            "repro_admission_accuracy_worst"
        ).value == pytest.approx(worst)

    def test_degraded_model_fires_alarm(self, tiny_trace):
        """A deny-everything classifier collapses matured accuracy (most
        objects in the trace are re-accessed) and must trip the alarm."""

        class DenyEverything:
            def predict(self, X):
                return np.full(len(X), ONE_TIME)

        node = CacheNode(tiny_trace, CFG)
        assert node.model is not None
        node.install_model(DenyEverything())
        fired = []
        node.drift = DriftMonitor(
            node.criteria.m_threshold, window_size=500,
            alarm_threshold=0.9, registry=node.registry,
            on_alarm=[lambda m, w, acc: fired.append((w, acc))],
        )
        replay_node(node)
        node.drift.finish()

        assert node.drift.alarms >= 1
        assert fired and all(acc < 0.9 for _, acc in fired)
        assert node.registry.get("repro_drift_alarms_total").value == len(fired)
        # The history table rectifies some denials, but matured accuracy
        # still reflects the broken verdicts.
        assert node.drift.worst_accuracy < 0.9


class TestBoundedTiming:
    def test_200k_replay_keeps_timing_structures_bounded(self):
        from repro.trace.generator import WorkloadConfig, generate_trace

        trace = generate_trace(
            WorkloadConfig(n_objects=50_000, mean_accesses=4.0, seed=5)
        )
        n = trace.n_accesses
        assert n >= 200_000 * 0.99  # ~200k requests

        cap = 512
        node = CacheNode(
            trace,
            NodeConfig(capacity_fraction=0.02, timing_capacity=cap),
        )
        assert node.model is not None
        replay_node(node, chunk=512)

        assert node.processed == n
        # One observation per decision: the misses, never the hits.
        decisions = n - node.stats.hits
        assert 0 < decisions < n
        assert node.classify_timing.count == decisions
        assert node.classify_timing.retained <= cap
        assert node.classify_timing.values().shape[0] <= cap
        # Exact aggregates survive the bound.
        assert node.classify_timing.max_value > 0
        snap_count = node.classify_timing.summary()["count"]
        assert snap_count == decisions

    def test_service_latency_reservoir_bounded_over_tcp(self, tiny_trace):
        cap = 100

        async def run():
            node = CacheNode(
                tiny_trace,
                NodeConfig(capacity_fraction=0.02, timing_capacity=cap),
            )
            server = CacheNodeServer(node, port=0)
            await server.start()
            result = await run_loadgen(
                tiny_trace,
                LoadgenConfig(port=server.port, rate=50_000, connections=4),
            )
            await server.shutdown()
            return server, result

        server, result = asyncio.run(run())
        assert result.errors == 0
        n = result.completed
        assert server.service_latencies.count == n
        assert server.service_latencies.retained <= cap

