"""Serving-layer integration tests over real localhost TCP.

The load-bearing property: a replay served through concurrent connections
produces *identical* cache statistics to the offline simulator on the same
trace — the single-writer sequencer makes concurrency invisible to cache
state.
"""

import asyncio

import pytest

from repro.server.loadgen import LoadgenConfig, fetch_stats, run_loadgen
from repro.server.loop import install_uvloop, reset_loop_policy
from repro.server.node import CacheNode, CacheNodeServer, NodeConfig, replay_offline
from repro.server.protocol import BIN_GET_ERR, BIN_GET_OK
from repro.server.retrainer import Retrainer, RetrainerConfig
from tests.server.wire import Client

CFG = NodeConfig(capacity_fraction=0.02)


async def start_server(trace, cfg=CFG, **kwargs) -> tuple[CacheNode, CacheNodeServer]:
    node = CacheNode(trace, cfg)
    server = CacheNodeServer(node, port=0, **kwargs)
    await server.start()
    return node, server


class TestReplayParity:
    def test_concurrent_replay_matches_offline_simulate(self, tiny_trace):
        self.check_replay_matches_offline(tiny_trace)

    def test_concurrent_replay_matches_offline_simulate_on_uvloop(self, tiny_trace):
        """The loop implementation is invisible to server state."""
        pytest.importorskip("uvloop")
        assert install_uvloop()
        try:
            self.check_replay_matches_offline(tiny_trace)
        finally:
            reset_loop_policy()

    @staticmethod
    def check_replay_matches_offline(tiny_trace):
        async def run():
            node, server = await start_server(tiny_trace)
            result = await run_loadgen(
                tiny_trace,
                LoadgenConfig(port=server.port, rate=50_000, connections=6),
            )
            await server.shutdown()
            return node, result

        node, result = asyncio.run(run())
        assert result.errors == 0
        assert result.completed == tiny_trace.n_accesses

        ref = replay_offline(tiny_trace, CFG)
        assert node.stats.hits == ref.stats.hits
        assert node.stats.files_written == ref.stats.files_written
        assert node.stats.bytes_written == ref.stats.bytes_written
        assert node.stats.admissions_denied == ref.stats.admissions_denied
        # The STATS snapshot carried back by the loadgen agrees too.
        snap = result.server_stats
        assert snap["requests"] == tiny_trace.n_accesses
        assert snap["hit_rate"] == pytest.approx(ref.stats.hit_rate)
        assert snap["files_written"] == ref.stats.files_written
        # One t_classify observation per decision: misses only (Fig. 4).
        assert snap["t_classify"]["count"] == tiny_trace.n_accesses - ref.stats.hits
        assert snap["service_latency"]["count"] == tiny_trace.n_accesses

    def test_client_observed_hits_match_server(self, tiny_trace):
        async def run():
            node, server = await start_server(
                tiny_trace, NodeConfig(capacity_fraction=0.02, classifier=False)
            )
            result = await run_loadgen(
                tiny_trace,
                LoadgenConfig(port=server.port, rate=50_000, connections=3),
            )
            await server.shutdown()
            return node, result

        node, result = asyncio.run(run())
        assert result.hits == node.stats.hits


class TestSequencing:
    def test_out_of_order_arrival_is_reassembled(self, tiny_trace):
        """Index 1 sent (on another connection) before index 0 still
        completes, in trace order, once index 0 arrives."""

        async def run():
            node, server = await start_server(tiny_trace)
            c1 = await Client.connect(server.port)
            c2 = await Client.connect(server.port)
            await c1.send_gets([1])
            await asyncio.sleep(0.05)
            assert node.processed == 0  # parked, waiting for index 0
            (first,) = await c2.get([0])
            (second,) = await c1.recv()
            await c1.close()
            await c2.close()
            await server.shutdown()
            return node, first, second

        node, first, second = asyncio.run(run())
        assert first[:2] == (BIN_GET_OK, 0)
        assert second[:2] == (BIN_GET_OK, 1)
        assert node.processed == 2

    def test_duplicate_and_out_of_range_indices_are_rejected(self, tiny_trace):
        async def run():
            node, server = await start_server(tiny_trace)
            client = await Client.connect(server.port)
            (ok,) = await client.get([0])
            (dup,) = await client.get([0])  # duplicate
            (oob,) = await client.get([tiny_trace.n_accesses])
            wrong = int(tiny_trace.object_ids[1]) + 10_000
            (mismatch,) = await client.get([1], oid=wrong)
            unknown = await client.ask({"op": "NOPE"})
            await client.close()
            await server.shutdown()
            return ok, dup, oob, mismatch, unknown

        ok, dup, oob, mismatch, unknown = asyncio.run(run())
        assert ok[0] == BIN_GET_OK
        assert dup[0] == BIN_GET_ERR and "already served" in dup[2]
        assert oob[0] == BIN_GET_ERR and "out of range" in oob[2]
        assert mismatch[0] == BIN_GET_ERR and "oid" in mismatch[2]
        assert not unknown["ok"] and "error" in unknown

    def test_json_get_is_an_unknown_op(self, tiny_trace):
        """GETs have no JSON form: the frame gets the in-band unknown-op
        error, never reaches the sequencer, and the connection keeps
        serving binary GETs and control verbs."""

        async def run():
            node, server = await start_server(tiny_trace)
            client = await Client.connect(server.port)
            refused = await client.ask({"op": "GET", "index": 0})
            queued = server.queue_depth
            (served,) = await client.get([0])
            ping = await client.ask({"op": "PING"})
            await client.close()
            await server.shutdown()
            return node, refused, queued, served, ping

        node, refused, queued, served, ping = asyncio.run(run())
        assert not refused["ok"] and "unknown op" in refused["error"]
        assert queued == 0
        assert served[:2] == (BIN_GET_OK, 0)
        assert ping == {"ok": True, "op": "PING"}
        assert node.processed == 1


class TestGracefulShutdown:
    def test_drain_answers_every_accepted_request(self, tiny_trace):
        """SIGTERM-style shutdown processes everything already accepted."""
        k = 500

        async def run():
            node, server = await start_server(tiny_trace)
            client = await Client.connect(server.port)
            await client.send_gets(range(k))
            await asyncio.sleep(0.05)  # let the handler accept them all
            shutdown = asyncio.ensure_future(server.shutdown())
            responses = await client.recv(k)
            await shutdown
            await client.close()
            return node, responses

        node, responses = asyncio.run(run())
        assert len(responses) == k
        assert all(r[0] == BIN_GET_OK for r in responses)
        assert node.processed == k
        # And the drained prefix still matches the offline replay.
        ref = replay_offline(tiny_trace, CFG)
        assert node.stats.hits <= ref.stats.hits

    def test_new_requests_rejected_while_draining(self, tiny_trace):
        async def run():
            node, server = await start_server(tiny_trace)
            client = await Client.connect(server.port)
            await server.shutdown()
            # The connection stays open through the drain; late GETs get an
            # in-band error (written before the server closes it).
            try:
                frames = await client.get([0])
            except ConnectionError:
                frames = []
            await client.close()
            return frames

        frames = asyncio.run(run())
        assert not frames or (
            frames[0][0] == BIN_GET_ERR and "drain" in frames[0][2]
        )


class TestOps:
    def test_ping_stats_reset(self, tiny_trace):
        async def run():
            node, server = await start_server(tiny_trace)
            client = await Client.connect(server.port)
            ping = await client.ask({"op": "PING"})
            await client.get(range(100))
            stats = await fetch_stats("127.0.0.1", server.port)
            reset = await client.ask({"op": "RESET"})
            stats_after = await fetch_stats("127.0.0.1", server.port)
            await client.close()
            await server.shutdown()
            return ping, stats, reset, stats_after

        ping, stats, reset, stats_after = asyncio.run(run())
        assert ping["ok"] and ping["op"] == "PING"
        assert stats["requests"] == 100
        assert reset["ok"]
        assert stats_after["requests"] == 0
        assert stats_after["processed"] == 0

    def test_reload_without_retrainer_errors(self, tiny_trace):
        async def run():
            node, server = await start_server(tiny_trace)
            client = await Client.connect(server.port)
            msg = await client.ask({"op": "RELOAD"})
            await client.close()
            await server.shutdown()
            return msg

        msg = asyncio.run(run())
        assert not msg["ok"]


class TestAtomicModelSwap:
    def test_reload_during_replay_drops_no_request(self, tiny_trace):
        """A mid-replay retrain + atomic swap: every request still gets a
        successful response and the model version advances."""

        async def run():
            node = CacheNode(tiny_trace, CFG)
            retrainer = Retrainer(
                node,
                # Huge period: only the explicit RELOAD retrains.
                RetrainerConfig(period=1e9, retrain_hour=5.0),
            )
            server = CacheNodeServer(node, port=0, retrainer=retrainer)
            await server.start()

            async def reload_midway():
                await asyncio.sleep(0.1)
                client = await Client.connect(server.port)
                msg = await client.ask({"op": "RELOAD"})
                await client.close()
                return msg

            result, reload_resp = await asyncio.gather(
                run_loadgen(
                    tiny_trace,
                    LoadgenConfig(port=server.port, rate=10_000, connections=4),
                ),
                reload_midway(),
            )
            await server.shutdown()
            return node, result, reload_resp

        node, result, reload_resp = asyncio.run(run())
        assert result.errors == 0
        assert result.completed == tiny_trace.n_accesses
        assert node.processed == tiny_trace.n_accesses
        assert reload_resp["ok"]
        if reload_resp["trained"]:
            assert node.model_version >= 2
