"""Shared pieces of the end-to-end benchmark: paths, workload inputs,
estimators, ``/proc`` readers and the in-memory span recorder.

Nothing here imports ``repro`` at module level except through
:func:`add_src_to_path` callers, so ``run.py`` can fail cleanly (exit 2)
in a directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run leaves behind (traces, server logs, Chrome traces).
WORK = HERE / ".work"

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# --------------------------------------------------------------- workloads

SERVE_WORKLOADS = ("serve_proposal", "serve_original")
REPLAY_WORKLOADS = ("replay_proposal", "replay_device", "replay_hot", "replay_learned")
WORKLOADS = SERVE_WORKLOADS + REPLAY_WORKLOADS

#: Held out: never used while a change is written; a gain must also hold here.
HELD_OUT_SEED = 20180813

#: The fixed population every seed samples its objects from (build_trace).
POPULATION_SEED = 20180801
SAMPLE_RATE = 0.9

CAPACITY_FRACTION = 0.02
HOT_FRACTIONS = (0.20, 0.10, 0.05)
PACED_RATE = 20_000.0       # req/s offered in the open-loop phase
PACED_SEGMENT = 10_000      # requests per paced segment
SAT_WINDOW = 4_096          # outstanding requests in the closed-loop phase
SAT_SEGMENTS = 10
CONNECTIONS = 2
IN_PROCESS_BATCH = 256      # CacheNode micro-batch in the traced pass
IN_PROCESS_REQUESTS = 100_000

#: Calibrated on the 2-core sandbox (Python 3.11, numpy 2.4, no uvloop) so
#: that one replay takes about a second and a serve run about ``--seconds``.
#: ``serve`` is objects per measured second; the rest are fixed sizes.
SIZES = {
    "serve_objects_per_second": 13_900,  # x8 s -> ~111k objects, ~440k requests
    "replay_proposal": 50_000,           # ~197k requests, ~0.5 s per replay
    "replay_device": 25_000,             # ~99k requests, ~1.0 s per replay
    "replay_hot": 4_000,                 # ~240k requests, plan 0.85 s + 3 replays
    "replay_learned": 4_000,             # ~16k requests, ~1.1 s per replay
}
QUICK_SIZES = {
    "serve_objects_per_second": 13_900,  # with --seconds 0.5 -> ~7k objects
    "replay_proposal": 4_000,
    "replay_device": 3_000,
    "replay_hot": 400,
    "replay_learned": 1_200,
}


# ----------------------------------------------------------------- metrics
#
# (name, unit, better[, bound]) -- BENCHMARK.json repeats these tables and the
# smoke test checks that the two agree.

END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cpu_us_per_req", "us", "lower", 0.25),
    ("req_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("hit_rate", "ratio", "higher", 0.04),
    ("byte_hit_rate", "ratio", "higher", 0.05),
    ("write_rate", "ratio", "lower", 0.25),
    ("byte_write_rate", "ratio", "lower", 0.25),
    ("write_amp", "ratio", "lower", 0.02),
)

PER_LAYER = (
    ("trace.generate_s", "s", "lower"),
    ("trace.load_s", "s", "lower"),
    ("trace.stack_distances_s", "s", "lower"),
    ("cache.segments.plan_build_s", "s", "lower"),
    ("cache.segments.coverage", "ratio", "higher"),
    ("cache.segments.batches", "count", "higher"),
    ("cache.segments.access_batch_ns_per_req", "ns", "lower"),
    ("core.criteria_solve_s", "s", "lower"),
    ("core.labeling_s", "s", "lower"),
    ("ml.tree.fit_s", "s", "lower"),
    ("ml.tree.fit_rows", "count", "lower"),
    ("ml.tree.nodes", "count", "lower"),
    ("ml.fastpath.compile_s", "s", "lower"),
    ("core.online.features_into_ns", "ns", "lower"),
    ("ml.fastpath.predict_one_ns", "ns", "lower"),
    ("core.online.should_admit_ns", "ns", "lower"),
    ("core.online.decisions", "count", "lower"),
    ("core.online.denied_share", "ratio", "higher"),
    ("core.history_table.rectifications", "count", "lower"),
    ("core.online.features_into_batch_ns_per_row", "ns", "lower"),
    ("ml.fastpath.predict_batch_ns_per_row", "ns", "lower"),
    ("server.stage_feature_us_per_req", "us", "lower"),
    ("server.stage_inference_us_per_req", "us", "lower"),
    ("server.t_classify_us", "us", "lower"),
    ("server.protocol.decode_ns_per_frame", "ns", "lower"),
    ("server.protocol.encode_ns_per_frame", "ns", "lower"),
    ("server.stage_reply_us_per_req", "us", "lower"),
    ("server.node.process_batch_us_per_req", "us", "lower"),
    ("server.stage_cache_us_per_req", "us", "lower"),
    ("server.batch_size_mean", "count", "higher"),
    ("server.queue_wait_us_mean", "us", "lower"),
    ("server.service_p50_ms", "ms", "lower"),
    ("server.service_p99_ms", "ms", "lower"),
    ("server.cpu_user_s", "s", "lower"),
    ("server.cpu_sys_s", "s", "lower"),
    ("server.residual_us_per_req", "us", "lower"),
    ("cache.simulator.loop_ns_per_req", "ns", "lower"),
    ("cache.policy.access_ns", "ns", "lower"),
    ("cache.policy.hits", "count", "higher"),
    ("cache.policy.inserts", "count", "lower"),
    ("cache.policy.evictions", "count", "lower"),
    ("cache.hierarchy.dram_hit_share", "ratio", "higher"),
    ("ssd.device.on_insert_us", "us", "lower"),
    ("ssd.device.on_evict_us", "us", "lower"),
    ("ssd.ftl.write_us_per_page", "us", "lower"),
    ("ssd.ftl.host_pages", "count", "lower"),
    ("ssd.ftl.gc_pages_relocated", "count", "lower"),
    ("ssd.ftl.gc_share", "ratio", "lower"),
    ("ssd.ftl.erases", "count", "lower"),
    ("ssd.cmt.lookup_ns", "ns", "lower"),
    ("ssd.cmt.lookups", "count", "lower"),
    ("ssd.cmt.miss_rate", "ratio", "lower"),
    ("ssd.cmt.added_latency_ms", "ms", "lower"),
    ("ssd.lifetime_days", "d", "higher"),
    ("cache.learned.decision_us", "us", "lower"),
    ("cache.learned.decisions", "count", "lower"),
    ("cache.learned.learned_share", "ratio", "higher"),
    ("cache.learned.fallback_evictions", "count", "lower"),
    ("cache.learned.churn_inserts", "count", "lower"),
    ("obs.ledger.writes", "count", "lower"),
    ("obs.ledger.avoided_writes", "count", "higher"),
    ("client.p99_ms", "ms", "lower"),
    ("client.late_p99_ms", "ms", "lower"),
    ("client.cpu_us_per_req", "us", "lower"),
    ("client.disturbed_segments", "count", "lower"),
    ("host.spin_ns", "ns", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
)


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout's ``src/``; exit 2 if absent."""
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the program under test is "
              "missing from this checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for every child: pinned thread pools, ``src`` importable."""
    env = dict(os.environ)
    for key in THREAD_ENV:
        env[key] = "1"
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def objects_for(workload: str, seconds: float, quick: bool) -> int:
    sizes = QUICK_SIZES if quick else SIZES
    if workload in SERVE_WORKLOADS:
        return max(2_000, int(sizes["serve_objects_per_second"] * seconds))
    return sizes[workload]


def build_trace(workload: str, seed: int, n_objects: int):
    """The workload's input: about ``n_objects`` objects drawn by ``seed``
    from a fixed population twice that size (the paper's own object-level
    sampling, ``sample_objects``), with all their requests.

    The population is the same for every seed, so what a seed changes is
    which objects are requested, not the week's popularity drift: across
    seeds the classifier's write rate then spreads by a few per cent, where
    independently generated traces spread it by 12-25 %.
    """
    from repro.perf.hotpath import SEGMENT_TRACE_FULL
    from repro.trace.generator import WorkloadConfig, generate_trace
    from repro.trace.sampler import sample_objects

    params = dict(SEGMENT_TRACE_FULL) if workload == "replay_hot" else {}
    params["n_objects"] = int(n_objects / SAMPLE_RATE)
    population = generate_trace(WorkloadConfig(seed=POPULATION_SEED, **params))
    return sample_objects(population, SAMPLE_RATE, rng=seed)


# -------------------------------------------------------------- estimators


def median(values) -> float:
    return float(statistics.median(values))


def segment_bounds(start: int, end: int, size: int) -> list[tuple[int, int]]:
    """Equal-size segments of ``[start, end)``; a short tail is dropped."""
    return [(lo, lo + size) for lo in range(start, end - size + 1, size)]


def spin_ns(iterations: int = 200_000) -> float:
    """ns per iteration of a fixed pure-Python loop: how fast this host is
    right now.  Reported beside the results, never used to normalise them."""
    t0 = time.perf_counter_ns()
    x = 0
    for i in range(iterations):
        x += i & 3
    return (time.perf_counter_ns() - t0) / iterations


# ------------------------------------------------------------------- /proc

_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu(pid: int) -> tuple[float, float]:
    """(user, system) CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b") ", 1)[1].split()
    return int(fields[11]) / _TICK, int(fields[12]) / _TICK


#: CPUs this process may use, read before anything is pinned.
CPUS = sorted(os.sched_getaffinity(0))


def pin_apart(server_pid: int) -> None:
    """Give the client (this process) and the server a CPU each, so the
    generator's spin never shares a core with the program it loads.
    Does nothing on a single-CPU host."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, {CPUS[0]})
        os.sched_setaffinity(server_pid, {CPUS[1]})


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ------------------------------------------------------------------- spans


class SpanRecorder:
    """Spans recorded by the benchmark around its calls into the program
    (nothing inside ``src/`` is instrumented).

    Call counts and total time cover every call.  Individual spans are kept
    for the first ``keep_batches`` request batches only, so memory stays
    bounded; each carries its parent span, the id of the request batch it
    served and its self time (duration minus the part its children cover).
    """

    def __init__(self, keep_batches: int = 64):
        self.keep_batches = keep_batches
        self.batch = 0
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.spans: list[tuple] = []   # (id, parent, name, start, end, batch, child ns)
        self._stack: list[list] = []   # open spans: [id, ns covered by children]
        self._next_id = 0
        #: What the two clock reads add to a measured interval (calibrate()).
        self.clock_bias_ns = 0.0

    def add(self, name: str, start: int, end: int, parent=None, child_ns: int = 0) -> int:
        """Record one finished span measured by the caller."""
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + end - start
        sid = self._next_id
        self._next_id += 1
        if self.batch < self.keep_batches:
            self.spans.append((sid, parent, name, start, end, self.batch, child_ns))
        return sid

    def wrap(self, name: str, fn, log=None, key: int = 0):
        """``fn`` timed as layer ``name``; nested wrapped calls become
        children.  With ``log``, each call's ``(key, args)`` is appended to
        it, so the layer can later be driven on the same input stream."""
        self.calls.setdefault(name, 0)
        self.total_ns.setdefault(name, 0)
        clock = time.perf_counter_ns
        calls, total, stack, spans = self.calls, self.total_ns, self._stack, self.spans

        def timed(*args):
            if log is not None:
                log.append((key, args))
            sid = self._next_id
            self._next_id = sid + 1
            keep = self.batch < self.keep_batches
            batch = self.batch
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                t1 = clock()
                stack.pop()
                calls[name] += 1
                total[name] += t1 - t0
                parent = None
                if stack:
                    stack[-1][1] += t1 - t0
                    parent = stack[-1][0]
                if keep:
                    spans.append((sid, parent, name, t0, t1, batch, frame[1]))

        return timed

    def calibrate(self, n: int = 50_000) -> None:
        """Measure the interval a wrapped call reports when ``fn`` does nothing."""
        probe = SpanRecorder(keep_batches=0)
        timed = probe.wrap("noop", lambda a, b: None)
        for _ in range(n):
            timed(1, 2)
        self.clock_bias_ns = probe.total_ns["noop"] / n

    def net_ns(self, name: str) -> float:
        """Total time of layer ``name`` without the clock's own cost.  Good
        for calls of many microseconds; short calls are driven instead."""
        if not self.calls.get(name):
            return 0.0
        return max(0.0, self.total_ns[name] - self.calls[name] * self.clock_bias_ns)

    def write_chrome_trace(self, path: Path, process_name: str) -> None:
        events = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
             "args": {"name": process_name}},
        ]
        for sid, parent, name, start, end, batch, child_ns in self.spans:
            events.append(
                {
                    "ph": "X", "pid": 1, "tid": 1, "name": name,
                    "cat": name.split(".")[0],
                    "ts": start / 1e3, "dur": (end - start) / 1e3,
                    "args": {"id": sid, "parent": parent, "batch": batch,
                             "self_us": (end - start - child_ns) / 1e3},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
