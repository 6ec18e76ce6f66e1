"""The served-node half of the benchmark: the real ``python -m repro serve``
in a fresh child process, driven by one client process over two connections.

Phase ``paced`` is an open loop at a fixed rate and times every request
from the moment it was *due*; phase ``sat`` is a closed loop with a fixed
window of outstanding requests and measures capacity.  The client is the
benchmark's own (not ``repro.server.loadgen``, which stamps latency at the
actual send); it reaches the program only through the wire protocol's
public functions.
"""

from __future__ import annotations

import json
import select
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import e2e_common as C
from repro.server.protocol import (
    BIN_GET_ERR,
    BIN_GET_OK,
    FrameDecoder,
    decode_message,
    encode_message,
    pack_get_request,
)

FLAG_HIT = 0x01
_FRAME_BYTES = len(pack_get_request(0, 0, 1))
_STALL_SECONDS = 30.0


class BenchmarkError(RuntimeError):
    """The run cannot produce a trustworthy result (not a metric regression)."""


# ------------------------------------------------------------------ server


class Server:
    """One ``repro serve`` child: spawn, wait for the port line, query, stop."""

    def __init__(self, npz: Path, *, classifier: bool, log: Path):
        self.log = log
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--trace", str(npz), "--port", "0", "--no-uvloop", "--log-json",
            "--capacity-fraction", str(C.CAPACITY_FRACTION),
            "--queue-depth", "4096",
        ]
        if not classifier:
            cmd.append("--no-classifier")
        self._log_fh = open(log, "wb")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=C.ROOT, env=C.child_env(),
            stdout=subprocess.DEVNULL, stderr=self._log_fh,
        )
        self.pid = self.proc.pid
        C.pin_apart(self.pid)
        self.port = 0
        self.setup_s = 0.0

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until the ``"port"`` log line; returns spawn-to-ready seconds."""
        deadline = self.t_spawn + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchmarkError(
                    f"server exited with {self.proc.returncode} before it "
                    f"was ready; see {self.log}"
                )
            for line in self.log.read_bytes().splitlines():
                if b'"port"' in line:
                    self.setup_s = time.perf_counter() - self.t_spawn
                    self.port = int(json.loads(line)["port"])
                    return self.setup_s
            time.sleep(0.002)
        raise BenchmarkError("server not ready in time")

    def stats(self) -> dict:
        """The public STATS verb on a fresh connection."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            s.sendall(encode_message({"op": "STATS"}))
            header = _read_exactly(s, 4)
            (length,) = struct.unpack(">I", header)
            msg = decode_message(_read_exactly(s, length))
        if not msg.get("ok"):
            raise BenchmarkError(f"STATS failed: {msg!r}")
        return msg["stats"]

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, and make sure nothing survives."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self._log_fh.close()


def _read_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise BenchmarkError("server closed the connection mid-reply")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def measure_setup(npz: Path, *, classifier: bool, repeats: int, tag: str) -> list[float]:
    """Spawn-to-ready seconds of ``repeats`` throwaway servers."""
    out = []
    for k in range(repeats):
        server = Server(npz, classifier=classifier, log=C.WORK / f"{tag}.setup{k}.log")
        try:
            out.append(server.wait_ready())
        finally:
            server.stop()
    return out


# ------------------------------------------------------------------ client


class Client:
    """Replays trace positions ``[0, n)`` round-robin over the connections.

    ``target`` is how many positions have been released for sending; the
    phases differ only in what moves it (the clock, or the reply count).
    """

    def __init__(self, port: int, trace, n_conn: int = C.CONNECTIONS):
        n = trace.n_accesses
        oids = trace.object_ids.tolist()
        sizes = trace.sizes.tolist()
        self.n = n
        self.n_conn = n_conn
        self.wires = [
            memoryview(b"".join(
                pack_get_request(i, oids[i], sizes[i]) for i in range(c, n, n_conn)
            ))
            for c in range(n_conn)
        ]
        self.socks = []
        for _ in range(n_conn):
            s = socket.create_connection(("127.0.0.1", port))
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.setblocking(False)
            self.socks.append(s)
        self.decoders = [FrameDecoder() for _ in range(n_conn)]
        self.sent_bytes = [0] * n_conn
        self.target = 0
        self.completed = 0
        self.failed = 0
        self.send_t = np.zeros(n)
        self.recv_t = np.zeros(n)
        self.hit = np.zeros(n, dtype=bool)
        self.errors: list[str] = []
        self._last_progress = time.perf_counter()

    def close(self) -> None:
        for s in self.socks:
            s.close()

    def _release(self, upto: int, now: float) -> None:
        if upto > self.target:
            self.send_t[self.target:upto] = now
            self.target = upto

    def _push(self) -> bool:
        """Send released frames; True when some are still waiting for buffer."""
        pending = False
        k = self.n_conn
        for c, sock in enumerate(self.socks):
            want = ((self.target + k - 1 - c) // k) * _FRAME_BYTES
            sent = self.sent_bytes[c]
            if sent < want:
                try:
                    sent += sock.send(self.wires[c][sent:want])
                except BlockingIOError:
                    pass
                self.sent_bytes[c] = sent
                pending = pending or sent < want
        return pending

    def _pull(self) -> bool:
        got = False
        for sock, decoder in zip(self.socks, self.decoders):
            try:
                data = sock.recv(262_144)
            except BlockingIOError:
                continue
            if not data:
                raise BenchmarkError("server closed a connection mid-run")
            now = time.perf_counter()
            frames = decoder.feed(data)
            if not frames:
                continue
            got = True
            ok = [f for f in frames if type(f) is tuple and f[0] == BIN_GET_OK]
            if len(ok) != len(frames):
                for f in frames:
                    if type(f) is tuple and f[0] == BIN_GET_OK:
                        continue
                    self.failed += 1
                    if len(self.errors) < 5:
                        self.errors.append(repr(f))
                    if type(f) is tuple and f[0] == BIN_GET_ERR:
                        self.recv_t[f[1]] = now
            if ok:
                idx = [f[1] for f in ok]
                self.recv_t[idx] = now
                self.hit[idx] = [f[2] & FLAG_HIT for f in ok]
            self.completed += len(frames)
        if got:
            self._last_progress = time.perf_counter()
        elif time.perf_counter() - self._last_progress > _STALL_SECONDS:
            raise BenchmarkError(
                f"no reply for {_STALL_SECONDS:.0f} s at {self.completed}/{self.n}"
            )
        return got

    def run_paced(self, end: int, rate: float) -> float:
        """Open loop over ``[0, end)``: position ``p`` is due at ``t0 + p/rate``.

        Sleeps in ``select`` while the next due time is more than a
        millisecond away and spins on ``sleep(0)`` inside that last
        millisecond.  Returns ``t0``.
        """
        t0 = time.perf_counter() + 0.02
        while self.completed < end:
            now = time.perf_counter()
            if now >= t0:
                self._release(min(end, int((now - t0) * rate) + 1), now)
            pending = self._push()
            if self._pull() or pending:
                continue
            if self.target < end:
                wait = t0 + self.target / rate - time.perf_counter()
                if wait > 1e-3:
                    select.select(self.socks, [], [], wait - 1e-3)
                else:
                    time.sleep(0)
            else:
                select.select(self.socks, [], [], 0.05)
        return t0

    def run_sat(self, end: int, window: int, every: int, sample) -> None:
        """Closed loop up to ``end`` with ``window`` requests outstanding;
        ``sample()`` is called about every ``every`` completions."""
        next_sample = self.completed + every
        while self.completed < end:
            self._release(min(end, self.completed + window), time.perf_counter())
            pending = self._push()
            got = self._pull()
            if self.completed >= next_sample:
                sample()
                next_sample = self.completed + every
            if not got:
                select.select(self.socks, self.socks if pending else [], [], 0.05)


# ---------------------------------------------------------------- workload


def run_served(trace, npz: Path, *, classifier: bool, tag: str, paced_end: int) -> dict:
    """One measured server run; returns raw observations (no metrics yet)."""
    server = Server(npz, classifier=classifier, log=C.WORK / f"{tag}.server.log")
    client = None
    try:
        setup_s = server.wait_ready()
        client = Client(server.port, trace)
        n = trace.n_accesses
        client_cpu0 = time.process_time()
        t0 = client.run_paced(paced_end, C.PACED_RATE)
        paced_stats = server.stats()

        samples = []

        def sample() -> None:
            samples.append(
                (client.completed, time.perf_counter(), sum(C.proc_cpu(server.pid)))
            )

        sample()
        every = max(1, (n - paced_end) // C.SAT_SEGMENTS)
        client.run_sat(n, C.SAT_WINDOW, every, sample)
        if samples[-1][0] != client.completed:
            sample()
        client_cpu = time.process_time() - client_cpu0
        stats = server.stats()
        cpu_user, cpu_sys = C.proc_cpu(server.pid)
        peak_rss_mb = C.proc_peak_rss_mb(server.pid)
    finally:
        if client is not None:
            client.close()
        server.stop()
    if server.proc.returncode != 0:
        raise BenchmarkError(f"server exited with {server.proc.returncode}")

    due = t0 + np.arange(paced_end) / C.PACED_RATE
    return {
        "setup_s": setup_s,
        "n": n,
        "paced_end": paced_end,
        "latency_s": client.recv_t[:paced_end] - due,
        "late_s": client.send_t[:paced_end] - due,
        "sat_samples": samples,
        "client_cpu_s": client_cpu,
        "client_hits": int(client.hit.sum()),
        "completed": client.completed,
        "failed": client.failed + (n - client.completed),
        "errors": client.errors,
        "stats": stats,
        "paced_stats": paced_stats,
        "cpu_user_s": cpu_user,
        "cpu_sys_s": cpu_sys,
        "peak_rss_mb": peak_rss_mb,
    }


def paced_segments(obs: dict) -> dict:
    """Per-segment median / p99 latency and generator lateness (ms)."""
    p50, p99, late99 = [], [], []
    for lo, hi in C.segment_bounds(0, obs["paced_end"], C.PACED_SEGMENT):
        lat = obs["latency_s"][lo:hi] * 1e3
        p50.append(float(np.median(lat)))
        p99.append(float(np.percentile(lat, 99)))
        late99.append(float(np.percentile(obs["late_s"][lo:hi] * 1e3, 99)))
    return {
        "p50_ms": p50,
        "p99_ms": p99,
        "late_p99_ms": late99,
        # Fixed beforehand: a segment is disturbed iff the generator itself
        # ran more than a millisecond late at its p99.  Reported, not dropped.
        "disturbed": sum(1 for v in late99 if v > 1.0),
    }


def sat_phase(obs: dict) -> dict:
    """Completions per second of each ``sat`` segment, and the server's CPU
    per request over the whole phase (``/proc/<pid>/stat`` counts in 10 ms
    ticks, too coarse for one segment)."""
    samples = obs["sat_samples"]
    rate = [
        (c1 - c0) / (t1 - t0)
        for (c0, t0, _), (c1, t1, _) in zip(samples, samples[1:])
        if c1 > c0 and t1 > t0
    ]
    (c_first, _, cpu_first), (c_last, _, cpu_last) = samples[0], samples[-1]
    return {
        "req_per_s": rate,
        "cpu_us_per_req": (cpu_last - cpu_first) / max(1, c_last - c_first) * 1e6,
    }


def stage_seconds(stats: dict, stage: str) -> tuple[float, int]:
    """(sum of seconds, observations) of one ``repro_stage_seconds`` child."""
    family = stats["metrics"].get("repro_stage_seconds", {"values": []})
    for child in family["values"]:
        if child["labels"].get("stage") == stage:
            return float(child["sum"]), int(child["count"])
    return 0.0, 0


def check_served(stats: dict, reference: dict, client_hits: int, failed: int) -> list[str]:
    """The serve correctness gate: every counter the server reports equals
    the offline reference exactly, and so does what the client saw."""
    problems = []
    if failed:
        problems.append(f"{failed} request(s) failed or went unanswered")
    for key, want in reference.items():
        if stats.get(key) != want:
            problems.append(f"server {key} = {stats.get(key)}, offline replay = {want}")
    ledger = stats["ledger"]
    for key, want in (
        ("total_writes", reference["files_written"]),
        ("total_bytes", reference["bytes_written"]),
        ("avoided_writes", reference["admissions_denied"]),
    ):
        if ledger.get(key) != want:
            problems.append(f"ledger {key} = {ledger.get(key)}, offline replay = {want}")
    if client_hits != reference["hits"]:
        problems.append(f"client saw {client_hits} hits, offline replay = {reference['hits']}")
    return problems
