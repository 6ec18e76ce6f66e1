"""Serving-layer span tree, SPANS verb, node ledger, and the sampler
gauges surfaced on /metrics.

Spans are wall-clock observability: the tests pin *structure* (names,
nesting, track sharing, drain semantics) and *neutrality* (identical
cache statistics with tracing on, off, or absent), never durations.
"""

import asyncio

from repro.obs.spans import Tracer, validate_chrome_trace
from repro.server.loadgen import LoadgenConfig, run_loadgen
from repro.server.metrics import format_metrics, metrics_snapshot
from repro.server.node import CacheNode, CacheNodeServer, NodeConfig, replay_offline
from tests.server.wire import Client

CFG = NodeConfig(capacity_fraction=0.02)


def served_replay(trace, spans=None):
    """Serve ``trace`` over real TCP, replay it, return the node."""

    async def run():
        node = CacheNode(trace, CFG, spans=spans)
        server = CacheNodeServer(node, port=0)
        await server.start()
        result = await run_loadgen(
            trace,
            LoadgenConfig(port=server.port, rate=50_000, connections=4),
        )
        await server.shutdown()
        return node, result

    return asyncio.run(run())


class TestBatchSpanTree:
    def test_served_batches_emit_the_full_stage_tree(self, tiny_trace):
        spans = Tracer()
        node, result = served_replay(tiny_trace, spans=spans)
        assert result.errors == 0

        events = spans.events()
        by_name = {}
        for ev in events:
            by_name.setdefault(ev["name"], []).append(ev)
        expected = {
            "request_batch", "queue_wait", "process_batch", "cache_ops", "reply",
        }
        assert expected <= set(by_name)
        # Classification runs inside the request loop, miss by miss, so it
        # is no contiguous span: cache_ops carries its count and its summed
        # gather / tree-walk time as args instead.
        assert not {"feature_build", "batch_inference"} & set(by_name)
        ops = [ev["args"] for ev in by_name["cache_ops"]]
        assert sum(a["requests"] for a in ops) == tiny_trace.n_accesses
        assert sum(a["decisions"] for a in ops) == (
            tiny_trace.n_accesses - node.stats.hits
        )
        for ev in by_name["cache_ops"]:
            a = ev["args"]
            assert (a["feature_ns"] > 0) == (a["inference_ns"] > 0) == (
                a["decisions"] > 0
            )
            assert a["feature_ns"] + a["inference_ns"] <= ev["end_ns"] - ev["start_ns"]

        # Every request_batch root owns exactly one batch's children on
        # its own track, and the children nest inside it in time.
        roots = by_name["request_batch"]
        for child_name in expected - {"request_batch"}:
            assert len(by_name[child_name]) == len(roots)
        root_tracks = {ev["track"] for ev in roots}
        assert len(root_tracks) == len(roots)  # one track per batch
        for ev in events:
            assert ev["track"] in root_tracks
        for root in roots:
            children = [
                e for e in events
                if e["track"] == root["track"] and e is not root
            ]
            for child in children:
                assert root["start_ns"] <= child["start_ns"]
                assert child["end_ns"] <= root["end_ns"]

        # The whole drained buffer exports as a valid Chrome trace.
        assert validate_chrome_trace(spans.to_chrome()) == len(events)

    def test_tracing_does_not_perturb_cache_state(self, tiny_trace):
        traced, _ = served_replay(tiny_trace, spans=Tracer())
        disabled, _ = served_replay(
            tiny_trace, spans=Tracer(enabled=False)
        )
        bare, _ = served_replay(tiny_trace, spans=None)
        ref = replay_offline(tiny_trace, CFG)
        for node in (traced, disabled, bare):
            assert node.stats.hits == ref.stats.hits
            assert node.stats.files_written == ref.stats.files_written
            assert node.stats.admissions_denied == ref.stats.admissions_denied

    def test_disabled_tracer_records_nothing(self, tiny_trace):
        spans = Tracer(enabled=False)
        served_replay(tiny_trace, spans=spans)
        assert len(spans) == 0 and spans.recorded == 0


class TestNodeLedger:
    def test_every_write_and_denial_is_attributed(self, tiny_trace):
        node, _ = served_replay(tiny_trace)
        ref = replay_offline(tiny_trace, CFG)
        led = node.ledger
        assert led.total_writes == ref.stats.files_written
        assert led.total_bytes == ref.stats.bytes_written
        assert led.writes_by_cause()["admission_accept"] == led.total_writes
        assert led.avoided_writes == ref.stats.admissions_denied
        # Single node, no retrain: everything under the initial model
        # (an offline-trained classifier installs as v1).
        assert led.writes_by_model() == {"v1": led.total_writes}

    def test_reset_clears_ledger_and_spans(self, tiny_trace):
        async def run():
            spans = Tracer()
            node = CacheNode(tiny_trace, CFG, spans=spans)
            server = CacheNodeServer(node, port=0)
            await server.start()
            client = await Client.connect(server.port)
            await client.get(range(40))
            assert node.ledger.total_writes > 0 and len(spans) > 0
            msg = await client.ask({"op": "RESET"})
            assert msg["ok"]
            await client.close()
            await server.shutdown()
            return node, spans

        node, spans = asyncio.run(run())
        assert node.ledger.total_writes == 0
        assert len(spans) == 0 and spans.recorded == 0


class TestSpansVerb:
    async def _ask(self, server, message):
        client = await Client.connect(server.port)
        msg = await client.ask(message)
        await client.close()
        return msg

    def test_spans_drains_and_reports_ring_accounting(self, tiny_trace):
        async def run():
            spans = Tracer()
            node = CacheNode(tiny_trace, CFG, spans=spans)
            server = CacheNodeServer(node, port=0)
            await server.start()
            client = await Client.connect(server.port)
            await client.get(range(20))
            first = await self._ask(server, {"op": "SPANS", "clear": True})
            second = await self._ask(server, {"op": "SPANS"})
            await client.close()
            await server.shutdown()
            return spans, first, second

        spans, first, second = asyncio.run(run())
        assert first["ok"] and first["op"] == "SPANS"
        names = {ev["name"] for ev in first["spans"]}
        assert "request_batch" in names and "cache_ops" in names
        assert first["recorded"] == len(first["spans"])
        assert first["dropped"] == 0
        assert first["capacity"] == spans.capacity
        # clear=True drained the ring: the follow-up sees an empty buffer
        # but the cumulative recorded count survives.
        assert second["spans"] == []
        assert second["recorded"] == first["recorded"]

    def test_spans_limit_and_validation(self, tiny_trace):
        async def run():
            node = CacheNode(tiny_trace, CFG, spans=Tracer())
            server = CacheNodeServer(node, port=0)
            await server.start()
            client = await Client.connect(server.port)
            await client.get(range(20))
            limited = await self._ask(server, {"op": "SPANS", "limit": 2})
            bad = await self._ask(server, {"op": "SPANS", "limit": -1})
            await client.close()
            await server.shutdown()
            return limited, bad

        limited, bad = asyncio.run(run())
        assert limited["ok"] and len(limited["spans"]) == 2
        assert not bad["ok"]
        assert "limit" in bad["error"]

    def test_spans_without_tracer_is_an_error(self, tiny_trace):
        async def run():
            node = CacheNode(tiny_trace, CFG)
            server = CacheNodeServer(node, port=0)
            await server.start()
            msg = await self._ask(server, {"op": "SPANS"})
            await server.shutdown()
            return msg

        msg = asyncio.run(run())
        assert not msg["ok"]
        assert "span tracing disabled" in msg["error"]


class TestMetricsSurface:
    def test_sampler_gauges_and_ledger_counters_rendered(self, tiny_trace):
        node, _ = served_replay(tiny_trace, spans=Tracer())
        text = node.registry.render_prometheus()
        assert 'repro_decision_trace_events{state="seen"}' in text
        assert 'repro_decision_trace_events{state="dropped"}' in text
        assert 'repro_reservoir_seen{reservoir="t_classify"}' in text
        assert 'repro_reservoir_retained{reservoir="t_classify"}' in text
        assert 'repro_spans{state="recorded"}' in text
        assert 'repro_spans{state="buffered"}' in text
        assert (
            'repro_ledger_writes_total{cause="admission_accept",model="v1"}'
            in text
        )
        assert 'repro_ledger_avoided_writes_total{model="v1"}' in text

    def test_metrics_snapshot_carries_spans_and_ledger(self, tiny_trace):
        spans = Tracer()
        node, _ = served_replay(tiny_trace, spans=spans)
        snap = metrics_snapshot(node)
        assert snap["spans"]["enabled"] is True
        assert snap["spans"]["recorded"] == spans.recorded
        assert snap["spans"]["buffered"] == len(spans)
        assert snap["spans"]["capacity"] == spans.capacity
        assert snap["ledger"]["total_writes"] == node.stats.files_written
        text = format_metrics(snap)
        assert "spans (buffered/recorded)" in text
        assert "writes avoided (ledger)" in text

    def test_snapshot_omits_spans_section_without_tracer(self, tiny_trace):
        node, _ = served_replay(tiny_trace)
        snap = metrics_snapshot(node)
        assert "spans" not in snap
        assert snap["ledger"]["total_writes"] == node.stats.files_written
