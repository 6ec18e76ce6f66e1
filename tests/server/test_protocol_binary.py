"""Binary GET frames: packing, the incremental decoder, and a live server.

The load-bearing properties:

* every packed frame round-trips through :class:`FrameDecoder` regardless
  of how the byte stream is chunked (the decoder is incremental);
* the vectorised run parser (homogeneous bursts of BIN_GET / BIN_GET_OK)
  decodes bit-identically to the frame-at-a-time path;
* binary GETs and JSON control verbs interleave freely on one connection,
  and every BIN_GET frame is answered by exactly one reply frame.
"""

import asyncio
import struct

import pytest

from repro.server.node import CacheNode, CacheNodeServer, NodeConfig
from repro.server.protocol import (
    BIN_GET,
    BIN_GET_ERR,
    BIN_GET_OK,
    BIN_MAGIC,
    BIN_NO_OID,
    FLAG_ADMITTED,
    FLAG_DENIED,
    FLAG_HIT,
    FrameDecoder,
    ProtocolError,
    encode_message,
    pack_get_error,
    pack_get_request,
    pack_get_response,
)
from tests.server.wire import Client

CFG = NodeConfig(capacity_fraction=0.02)


def decode_all(data: bytes) -> list:
    return FrameDecoder().feed(data)


class TestPacking:
    def test_get_request_round_trip(self):
        frames = decode_all(pack_get_request(7, 123, 4096))
        assert frames == [(BIN_GET, 7, 123, 4096)]

    def test_no_oid_sentinel_decodes_to_none(self):
        frames = decode_all(pack_get_request(7, None, 4096))
        assert frames == [(BIN_GET, 7, None, 4096)]

    def test_get_response_flags(self):
        data = pack_get_response(3, True, False, True)
        ((op, index, flags),) = decode_all(data)
        assert (op, index) == (BIN_GET_OK, 3)
        assert flags & FLAG_HIT
        assert flags & FLAG_DENIED
        assert not flags & FLAG_ADMITTED

    def test_get_error_carries_text(self):
        frames = decode_all(pack_get_error(9, "index already served"))
        assert frames == [(BIN_GET_ERR, 9, "index already served")]

    def test_frame_layout_is_documented_wire_format(self):
        data = pack_get_request(1, 2, 3)
        assert data[0] == BIN_MAGIC
        assert data[1] == BIN_GET
        assert struct.unpack(">H", data[2:4])[0] == 12
        assert struct.unpack(">III", data[4:16]) == (1, 2, 3)


class TestIncrementalDecoding:
    def test_byte_at_a_time_chunking(self):
        wire = (
            pack_get_request(0, 5, 100)
            + encode_message({"op": "PING"})
            + pack_get_response(0, True, False, False)
            + pack_get_error(1, "nope")
        )
        decoder = FrameDecoder()
        frames = []
        for i in range(len(wire)):
            frames += decoder.feed(wire[i : i + 1])
        assert frames == [
            (BIN_GET, 0, 5, 100),
            {"op": "PING"},
            (BIN_GET_OK, 0, FLAG_HIT),
            (BIN_GET_ERR, 1, "nope"),
        ]
        assert decoder.pending == 0

    def test_json_and_binary_interleave(self):
        wire = b"".join(
            pack_get_request(i, i, 10) + encode_message({"op": "TRACE", "limit": i})
            for i in range(5)
        )
        frames = decode_all(wire)
        assert len(frames) == 10
        assert frames[0] == (BIN_GET, 0, 0, 10)
        assert frames[1] == {"op": "TRACE", "limit": 0}

    def test_pending_counts_partial_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(pack_get_request(0, 1, 2)[:7]) == []
        assert decoder.pending == 7

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 100, 1000])
    def test_homogeneous_get_runs_match_frame_at_a_time(self, n):
        """The vectorised run parser is an invisible optimisation."""
        wire = b"".join(
            pack_get_request(i, BIN_NO_OID - 1 if i % 3 else None, i * 7)
            for i in range(n)
        )
        bulk = decode_all(wire)
        one_at_a_time = []
        decoder = FrameDecoder()
        for i in range(0, len(wire), 16):
            one_at_a_time += decoder.feed(wire[i : i + 16])
        assert bulk == one_at_a_time
        assert len(bulk) == n

    @pytest.mark.parametrize("n", [1, 16, 500])
    def test_homogeneous_ok_runs_match_frame_at_a_time(self, n):
        wire = b"".join(
            pack_get_response(i, bool(i % 2), bool(i % 3), False)
            for i in range(n)
        )
        bulk = decode_all(wire)
        assert len(bulk) == n
        assert bulk == [
            (
                BIN_GET_OK,
                i,
                (FLAG_HIT if i % 2 else 0) | (FLAG_ADMITTED if i % 3 else 0),
            )
            for i in range(n)
        ]

    def test_run_interrupted_by_other_frame_kind(self):
        wire = (
            b"".join(pack_get_request(i, i, 1) for i in range(40))
            + encode_message({"op": "STATS"})
            + b"".join(pack_get_request(i, i, 1) for i in range(40, 80))
        )
        frames = decode_all(wire)
        assert len(frames) == 81
        assert frames[40] == {"op": "STATS"}
        assert frames[79] == (BIN_GET, 78, 78, 1)

    def test_run_with_trailing_partial_frame(self):
        wire = b"".join(pack_get_request(i, i, 1) for i in range(50))
        decoder = FrameDecoder()
        frames = decoder.feed(wire[:-5])
        assert len(frames) == 49
        assert decoder.pending == 11
        assert decoder.feed(wire[-5:]) == [(BIN_GET, 49, 49, 1)]


class TestMalformedStreams:
    def test_unknown_binary_op_raises(self):
        bad = bytes([BIN_MAGIC, 0x7F]) + struct.pack(">H", 0)
        with pytest.raises(ProtocolError, match="unknown binary op"):
            decode_all(bad)

    def test_bad_discriminator_byte_raises(self):
        with pytest.raises(ProtocolError, match="discriminator"):
            decode_all(b"\x01garbage")

    def test_missized_get_payload_raises_only_when_complete(self):
        bad = bytes([BIN_MAGIC, BIN_GET]) + struct.pack(">H", 5)
        decoder = FrameDecoder()
        # Header alone: the decoder waits — the frame may still be in
        # flight, and a short read must never kill the connection.
        assert decoder.feed(bad) == []
        with pytest.raises(ProtocolError, match="BIN_GET payload"):
            decoder.feed(b"\x00" * 5)

    def test_error_carries_frames_parsed_ahead_of_violation(self):
        wire = (
            pack_get_request(0, 1, 2)
            + pack_get_request(1, 2, 3)
            + b"\xff"
        )
        with pytest.raises(ProtocolError) as exc_info:
            decode_all(wire)
        assert exc_info.value.frames == [
            (BIN_GET, 0, 1, 2),
            (BIN_GET, 1, 2, 3),
        ]

    def test_oversized_json_frame_rejected(self):
        header = struct.pack(">I", 2**24 - 1)
        with pytest.raises(ProtocolError, match="exceeds limit"):
            decode_all(header)


async def start_server(trace):
    node = CacheNode(trace, CFG)
    server = CacheNodeServer(node, port=0)
    await server.start()
    return node, server


class TestBinaryServing:
    def test_in_flight_duplicate_in_one_chunk_gets_its_own_reply(self, tiny_trace):
        """Two GETs for index 0 in one write: the second is a duplicate of
        a request that is queued but not yet sequenced.  Three frames in,
        three frames out — the duplicate as an error, nobody left waiting."""

        async def run():
            node, server = await start_server(tiny_trace)
            client = await Client.connect(server.port)
            frames = await asyncio.wait_for(client.get([0, 0, 1]), 5.0)
            await client.close()
            await server.shutdown()
            return node, frames

        node, frames = asyncio.run(run())
        assert sorted(f[:2] for f in frames) == sorted(
            [(BIN_GET_OK, 0), (BIN_GET_ERR, 0), (BIN_GET_OK, 1)]
        )
        (err,) = (f for f in frames if f[0] == BIN_GET_ERR)
        assert "already served" in err[2]
        assert node.processed == 2 and node.stats.requests == 2

    def test_in_flight_duplicate_across_connections_gets_its_own_reply(
        self, tiny_trace
    ):
        """The same race across two connections: both ask for index 1
        while it is parked behind the missing index 0."""

        async def run():
            node, server = await start_server(tiny_trace)
            c1 = await Client.connect(server.port)
            c2 = await Client.connect(server.port)
            # One event-loop turn carries both writes to the server, so
            # the second GET validates while the first is still queued.
            c1.writer.write(pack_get_request(1, None, 1))
            c2.writer.write(pack_get_request(1, None, 1))
            await asyncio.sleep(0.05)
            await c1.send_gets([0])
            replies = await asyncio.wait_for(
                asyncio.gather(c1.recv(2), c2.recv(1)), 5.0
            )
            await c1.close()
            await c2.close()
            await server.shutdown()
            return node, replies[0] + replies[1]

        node, frames = asyncio.run(run())
        assert sorted(f[:2] for f in frames) == sorted(
            [(BIN_GET_OK, 0), (BIN_GET_OK, 1), (BIN_GET_ERR, 1)]
        )
        assert node.processed == 2 and node.stats.requests == 2

    def test_pipelined_out_of_order_binary_gets(self, tiny_trace):
        """The sequencer reassembles binary GETs sent in reverse order."""

        async def run():
            node, server = await start_server(tiny_trace)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            n = 64
            oids = tiny_trace.object_ids
            for i in reversed(range(n)):
                writer.write(pack_get_request(i, int(oids[i]), 1))
            await writer.drain()
            decoder = FrameDecoder()
            got = []
            while len(got) < n:
                data = await reader.read(65536)
                assert data, "server closed early"
                got += decoder.feed(data)
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return got

        frames = asyncio.run(run())
        assert sorted(f[1] for f in frames) == list(range(64))
        assert all(f[0] == BIN_GET_OK for f in frames)

    def test_duplicate_binary_get_answered_with_error_frame(self, tiny_trace):
        async def run():
            node, server = await start_server(tiny_trace)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(pack_get_request(0, None, 1))
            await writer.drain()
            decoder = FrameDecoder()
            frames = []
            while not frames:
                frames += decoder.feed(await reader.read(65536))
            # Replay the already-served index: binary error frame back.
            writer.write(pack_get_request(0, None, 1))
            await writer.drain()
            errors = []
            while not errors:
                errors += decoder.feed(await reader.read(65536))
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return frames[0], errors[0]

        ok, err = asyncio.run(run())
        assert ok[0] == BIN_GET_OK and ok[1] == 0
        assert err[0] == BIN_GET_ERR and err[1] == 0
        assert "already served" in err[2]

    def test_wrong_oid_rejected_over_binary(self, tiny_trace):
        async def run():
            node, server = await start_server(tiny_trace)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            wrong = int(tiny_trace.object_ids[0]) + 10_000
            writer.write(pack_get_request(0, wrong, 1))
            await writer.drain()
            decoder = FrameDecoder()
            frames = []
            while not frames:
                frames += decoder.feed(await reader.read(65536))
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return frames[0]

        frame = asyncio.run(run())
        assert frame[0] == BIN_GET_ERR
        assert "oid" in frame[2]

    def test_json_control_ops_interleave_with_binary_gets(self, tiny_trace):
        """STATS (JSON) between binary GETs on one connection works."""

        async def run():
            node, server = await start_server(tiny_trace)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                pack_get_request(0, None, 1)
                + encode_message({"op": "PING"})
                + pack_get_request(1, None, 1)
            )
            await writer.drain()
            decoder = FrameDecoder()
            frames = []
            while len(frames) < 3:
                frames += decoder.feed(await reader.read(65536))
            writer.close()
            await writer.wait_closed()
            await server.shutdown()
            return frames

        frames = asyncio.run(run())
        kinds = [f if isinstance(f, dict) else f[0] for f in frames]
        assert {"op": "PING", "ok": True} in frames
        assert kinds.count(BIN_GET_OK) == 2
