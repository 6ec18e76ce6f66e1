"""Open-loop trace-replay load generator for the cache-node service.

Replays a :class:`~repro.trace.records.Trace` against a running
:class:`~repro.server.node.CacheNodeServer` at a target request rate.
*Open loop* means send times come from a fixed schedule, not from response
arrival — the standard methodology for latency measurement under load
(closed-loop clients hide queueing delay by self-throttling).

Mechanics
---------
* Trace positions are partitioned round-robin over ``connections`` TCP
  connections; the server's sequencer reassembles global trace order, so
  multi-connection replay exercises exactly the concurrency the node's
  single-writer design must absorb.
* Each connection runs an independent *sender* (fires at scheduled times,
  pipelining without waiting for replies) and *reader* (correlates
  responses by echoed ``index`` and records client-observed latency).
* GETs travel as ``BIN_GET`` frames
  (:func:`repro.server.protocol.pack_get_request`): the sender packs
  requests into one buffer flushed at schedule gaps, the reader parses
  chunked socket reads through a reused :class:`FrameDecoder` — the
  client-side twin of the server's hot path.
* After the replay, one extra connection fetches the server's STATS
  snapshot so the client report and the server's own counters travel
  together.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs.registry import latency_buckets
from repro.obs.spans import NULL_TRACER
from repro.server.metrics import timing_stats
from repro.server.protocol import (
    BIN_GET,
    BIN_GET_ERR,
    BIN_GET_OK,
    BIN_MAGIC,
    FLAG_HIT,
    FrameDecoder,
    ProtocolError,
    read_message,
    write_message,
)
from repro.trace.records import Trace

__all__ = ["LoadgenConfig", "LoadgenResult", "run_loadgen", "replay"]

#: Flush the sender's request buffer at this size even without a
#: schedule gap — bounds client memory at unsustainable offered rates.
_SEND_FLUSH_BYTES = 256 * 1024

#: One BIN_GET frame as a numpy record — big-endian fields matching
#: :func:`repro.server.protocol.pack_get_request` byte for byte, so a
#: connection's whole request stream packs in one vectorised ``tobytes``.
_GET_WIRE_DTYPE = np.dtype(
    [
        ("magic", "u1"),
        ("op", "u1"),
        ("length", ">u2"),
        ("index", ">u4"),
        ("oid", ">u4"),
        ("size", ">u4"),
    ]
)
_GET_BODY_BYTES = 12  # index + oid + size, three u32


@dataclass(frozen=True)
class LoadgenConfig:
    host: str = "127.0.0.1"
    port: int = 0
    rate: float = 2000.0        # requests/second (open-loop schedule)
    connections: int = 4
    start: int = 0              # first trace position to replay
    limit: int | None = None    # positions replayed: [start, start+limit)
    fetch_stats: bool = True

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.connections < 1:
            raise ValueError("connections must be >= 1")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1")


@dataclass
class LoadgenResult:
    """Client-side view of one replay, plus the server's STATS snapshot."""

    sent: int = 0
    completed: int = 0
    errors: int = 0
    hits: int = 0
    duration_seconds: float = 0.0
    target_rate: float = 0.0
    latency: dict = field(default_factory=dict)
    server_stats: dict | None = None

    @property
    def achieved_rate(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds

    @property
    def hit_rate(self) -> float:
        return self.hits / self.completed if self.completed else 0.0

    def summary(self) -> str:
        lat = self.latency or timing_stats([])
        lines = [
            f"sent {self.sent:,} requests, {self.completed:,} completed, "
            f"{self.errors:,} errors in {self.duration_seconds:.2f} s",
            f"throughput: {self.achieved_rate:,.0f} req/s achieved "
            f"({self.target_rate:,.0f} req/s offered)",
            f"client hit rate: {self.hit_rate:.4f}",
            f"latency: p50 {1e3 * lat['p50']:.3f} ms  "
            f"p95 {1e3 * lat['p95']:.3f} ms  "
            f"p99 {1e3 * lat['p99']:.3f} ms  "
            f"max {1e3 * lat['max']:.3f} ms",
        ]
        if self.server_stats is not None:
            s = self.server_stats
            lines.append(
                f"server: hit rate {s['hit_rate']:.4f}, "
                f"{s['files_written']:,} SSD writes, "
                f"model v{s['model_version']}"
            )
        return "\n".join(lines)


async def _replay_connection(
    cfg: LoadgenConfig,
    trace: Trace,
    positions: np.ndarray,
    send_times: np.ndarray,
    t0: float,
    result: LoadgenResult,
    latencies: list[float],
    conn_id: int = 0,
    tracer=None,
) -> None:
    spans = tracer or NULL_TRACER
    reader, writer = await asyncio.open_connection(cfg.host, cfg.port)
    oids = trace.object_ids
    sizes = trace.sizes
    in_flight: dict[int, float] = {}
    expected = positions.shape[0]

    async def read_responses() -> None:
        done = 0
        # The reader task is created before the send span is entered, so
        # this recv span roots its own track — send and recv overlap in
        # time and must not share a Chrome tid.
        with spans.span("recv", "loadgen", connection=conn_id) as rspan:
            try:
                # Chunked reads through the incremental decoder: one
                # socket read yields every pipelined response frame.
                # Latency is stamped once per chunk — the arrival time
                # of the read that carried the frame — and counters
                # accumulate in locals, committed per chunk.
                decoder = FrameDecoder()
                pop = in_flight.pop
                append = latencies.append
                while done < expected:
                    data = await reader.read(256 * 1024)
                    if not data:
                        break
                    now = time.perf_counter()
                    completed = hits = errors = 0
                    for frame in decoder.feed(data):
                        if type(frame) is dict:
                            continue
                        op = frame[0]
                        if op == BIN_GET_OK:
                            done += 1
                            sent_at = pop(frame[1], None)
                            completed += 1
                            if frame[2] & FLAG_HIT:
                                hits += 1
                            if sent_at is not None:
                                append(now - sent_at)
                        elif op == BIN_GET_ERR:
                            done += 1
                            pop(frame[1], None)
                            errors += 1
                    result.completed += completed
                    result.hits += hits
                    result.errors += errors
            except (ConnectionError, OSError, ProtocolError):
                pass  # server went away mid-stream
            rspan.annotate(responses=done)
        # Anything never answered (server death, early close) is an error.
        result.errors += expected - done

    async def send_requests(loop) -> None:
        # The whole wire stream for this connection is packed up front in
        # one vectorised shot (the frames depend only on the trace), so
        # the timing loop schedules and stamps but never serialises.
        # Flushes happen when the schedule says sleep (the socket would
        # sit idle anyway) or at the size bound — one write+drain per
        # burst instead of per request.
        frames = np.empty(expected, dtype=_GET_WIRE_DTYPE)
        frames["magic"] = BIN_MAGIC
        frames["op"] = BIN_GET
        frames["length"] = _GET_BODY_BYTES
        frames["index"] = positions
        frames["oid"] = oids[positions]
        frames["size"] = sizes[positions]
        wire = memoryview(frames.tobytes())
        stride = _GET_WIRE_DTYPE.itemsize
        start = 0  # byte offset of the first unflushed frame
        stamp = time.perf_counter
        sent = 0
        for i, (pos, due) in enumerate(
            zip(positions.tolist(), send_times.tolist())
        ):
            delay = t0 + due - loop.time()
            end = i * stride
            if delay > 0 or end - start >= _SEND_FLUSH_BYTES:
                if end > start:
                    writer.write(wire[start:end])
                    start = end
                    result.sent += sent
                    sent = 0
                    await writer.drain()
                if delay > 0:
                    await asyncio.sleep(delay)
            in_flight[pos] = stamp()
            sent += 1
        if len(wire) > start:
            writer.write(wire[start:])
            await writer.drain()
        result.sent += sent

    reader_task = asyncio.ensure_future(read_responses())
    try:
        loop = asyncio.get_running_loop()
        try:
            with spans.span(
                "send", "loadgen", connection=conn_id, requests=expected
            ):
                await send_requests(loop)
        except (ConnectionError, OSError):
            pass  # server gone; the reader accounts for the shortfall
        await reader_task
    finally:
        if not reader_task.done():
            reader_task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def fetch_stats(host: str, port: int) -> dict:
    """One-shot STATS request on a fresh connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_message(writer, {"op": "STATS"})
        msg = await read_message(reader)
        if msg is None or not msg.get("ok"):
            raise ConnectionError(f"STATS failed: {msg!r}")
        return msg["stats"]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _publish(result: LoadgenResult, latencies: list[float], registry) -> None:
    """Mirror a finished replay into a client-side metrics registry."""
    sent = registry.counter(
        "repro_loadgen_requests_total",
        "Loadgen requests by outcome.",
        ("outcome",),
    )
    sent.labels(outcome="completed").inc(result.completed)
    sent.labels(outcome="error").inc(result.errors)
    registry.counter(
        "repro_loadgen_hits_total", "Client-observed cache hits."
    ).inc(result.hits)
    registry.gauge(
        "repro_loadgen_achieved_rate",
        "Achieved request rate of the last replay (req/s).",
    ).set(result.achieved_rate)
    hist = registry.histogram(
        "repro_loadgen_latency_seconds",
        "Client-observed service latency.",
        buckets=latency_buckets(),
    )
    for lat in latencies:
        hist.observe(lat)


async def run_loadgen(
    trace: Trace, cfg: LoadgenConfig, *, registry=None, tracer=None
) -> LoadgenResult:
    """Replay ``trace`` positions ``[start, start+limit)`` open-loop.

    When ``registry`` (a :class:`~repro.obs.registry.MetricsRegistry`) is
    given, the finished replay is published into it as
    ``repro_loadgen_*`` metrics — useful when the loadgen itself is being
    scraped or its numbers belong next to the node's in one exposition.
    When ``tracer`` (a :class:`~repro.obs.spans.Tracer`) is given, each
    connection records coarse ``send``/``recv`` spans plus one overall
    ``replay`` span (per connection, not per request — the open-loop
    schedule must not pay tracing costs inside the send timing loop).
    """
    n = trace.n_accesses - cfg.start
    if cfg.limit is not None:
        n = min(n, cfg.limit)
    if n <= 0:
        raise ValueError("nothing to replay: start beyond trace end")
    positions = np.arange(cfg.start, cfg.start + n)
    send_times = np.arange(n) / cfg.rate  # open-loop schedule, uniform rate

    result = LoadgenResult(target_rate=cfg.rate)
    latencies: list[float] = []
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    t_wall = time.perf_counter()
    t_wall_ns = time.perf_counter_ns()
    await asyncio.gather(
        *(
            _replay_connection(
                cfg,
                trace,
                positions[c :: cfg.connections],
                send_times[c :: cfg.connections],
                t0,
                result,
                latencies,
                conn_id=c,
                tracer=tracer,
            )
            for c in range(cfg.connections)
        )
    )
    result.duration_seconds = time.perf_counter() - t_wall
    if tracer is not None and tracer.enabled:
        # Recorded post-hoc on its own track: entering a span here would
        # leak its track into every connection task created under it.
        tracer.add(
            "replay", "loadgen", t_wall_ns, time.perf_counter_ns(),
            track=tracer.new_track(),
            args={"sent": result.sent, "connections": cfg.connections},
        )
    result.latency = timing_stats(latencies)
    if registry is not None:
        _publish(result, latencies, registry)
    if cfg.fetch_stats:
        try:
            result.server_stats = await fetch_stats(cfg.host, cfg.port)
        except (ConnectionError, OSError):
            result.server_stats = None  # server already gone
    return result


def replay(trace: Trace, **kwargs) -> LoadgenResult:
    """Synchronous convenience wrapper: ``replay(trace, port=..., rate=...)``."""
    return asyncio.run(run_loadgen(trace, LoadgenConfig(**kwargs)))
