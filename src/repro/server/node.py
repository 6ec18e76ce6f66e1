"""The asyncio cache-node service: a runnable single-server deployment.

Two layers, deliberately separated:

* :class:`CacheNode` — a *synchronous* state machine owning all cache
  state (DRAM+SSD hierarchy, online feature tracker, classifier, history
  table, statistics).  Its only mutation entry point is
  :meth:`CacheNode.apply_batch` (:meth:`~CacheNode.process_batch` is its
  reply-dict form), which replays a contiguous run of
  trace positions through :func:`repro.cache.simulator.replay_range` —
  the loop :func:`~repro.cache.simulator.simulate` itself runs — so a
  served replay is bit-identical to the offline simulation
  (:func:`replay_offline` builds the reference stack; the equivalence is
  tested).
* :class:`CacheNodeServer` — the asyncio TCP front end.  Connection
  handlers parse frames and enqueue requests into one bounded queue
  (backpressure: a full queue suspends the handler, which stops reading
  its socket); a **single writer task** drains the queue, sequences
  requests by trace index, and applies them in micro-batches.  Because
  every cache mutation flows through that one task, no locking is needed
  and concurrent clients cannot interleave partial updates.

Micro-batching: the writer applies every currently-available request as
one :func:`~repro.cache.simulator.replay_range` call.  Classification is
*not* batched: the loop asks the node's
:class:`~repro.core.online.OnlineClassifierAdmission` — the very object
:func:`replay_offline` builds — on a miss and on nothing else (Fig. 4;
Eq. 6 charges ``t_classify`` to the miss path), so served == offline by
construction and a hit costs one timestamp store.  Replies, the denied
mask, drift, decision-trace events, timing and ledger records are all
derived from the loop's per-request outcomes and the admission's counters
afterwards, once per batch.

Every count lives once, on its owner — :attr:`CacheNode.stats`, the
admission, the ledger, the samplers, the server's connection set — and the
metrics registry is a view: counter and gauge families carry a reader that
runs when ``/metrics`` or ``STATS`` is rendered; a micro-batch writes only
the timing histograms.

The compiled model is read **once per batch** and bound into the admission
before the loop starts, so :meth:`CacheNode.install_model` (the
retrainer's atomic swap) can never split a batch across two models.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.cache.base import AccessResult, AdmissionPolicy, CachePolicy, CacheStats
from repro.cache.hierarchy import HierarchicalCache
from repro.cache.simulator import SimulationResult, make_policy, replay_range, simulate
from repro.core.criteria import Criteria, solve_criteria
from repro.core.features import PAPER_FEATURE_NAMES, extract_features
from repro.core.history_table import HistoryTable
from repro.core.labeling import ONE_TIME, one_time_labels, reaccess_distances
from repro.core.online import OnlineClassifierAdmission, OnlineFeatureTracker
from repro.ml.cost_sensitive import CostMatrix, CostSensitiveClassifier
from repro.ml.fastpath import fast_predictor
from repro.ml.tree import DecisionTreeClassifier
from repro.obs.drift import DriftMonitor
from repro.obs.exporter import MetricsExporter
from repro.obs.ledger import WriteLedger, write_cause
from repro.obs.registry import MetricsRegistry, Reservoir, latency_buckets
from repro.obs.spans import Tracer
from repro.obs.structlog import get_logger
from repro.obs.tracing import DecisionTrace
from repro.server.protocol import (
    BIN_GET,
    FrameDecoder,
    ProtocolError,
    encode_message,
    error_response,
    pack_get_error,
    pack_get_response,
)
from repro.trace.records import Trace

logger = get_logger("server.node")

__all__ = [
    "NodeConfig",
    "CacheNode",
    "CacheNodeServer",
    "build_cache",
    "solve_node_criteria",
    "train_seed_model",
    "classifier_admission",
    "replay_offline",
    "run_server",
]


@dataclass(frozen=True)
class NodeConfig:
    """Everything needed to build one cache node deterministically.

    The same config drives both the live server (:class:`CacheNode`) and
    the offline reference run (:func:`replay_offline`); determinism of the
    seed model (``seed``) is what makes served results reproducible.
    """

    policy: str = "lru"
    capacity_fraction: float | None = 0.01
    capacity_bytes: int | None = None
    dram_fraction: float = 0.05     # 0 disables the DRAM tier
    classifier: bool = True
    cost_v: float = 2.0
    train_seconds: float = 86400.0  # seed model trains on this trace prefix
    max_splits: int = 30
    min_train_samples: int = 50
    seed: int = 0
    max_batch: int = 256
    #: Bound on every timing structure (t_classify / decision / service
    #: latency reservoirs): O(timing_capacity) memory however long the
    #: node runs, with exact counts and sampled percentiles.
    timing_capacity: int = 10_000

    def resolve_capacity(self, trace: Trace) -> int:
        if (self.capacity_fraction is None) == (self.capacity_bytes is None):
            raise ValueError(
                "give exactly one of capacity_fraction / capacity_bytes"
            )
        if self.capacity_bytes is not None:
            if self.capacity_bytes <= 0:
                raise ValueError("capacity_bytes must be positive")
            return int(self.capacity_bytes)
        if self.capacity_fraction <= 0:
            raise ValueError("capacity_fraction must be positive")
        return max(1, int(self.capacity_fraction * trace.footprint_bytes))


def build_cache(trace: Trace, cfg: NodeConfig) -> CachePolicy:
    """The node's cache stack: SSD-tier policy, optionally DRAM-fronted."""
    ssd = make_policy(cfg.policy, cfg.resolve_capacity(trace), trace)
    if cfg.dram_fraction <= 0:
        return ssd
    return HierarchicalCache.with_lru_dram(ssd, dram_fraction=cfg.dram_fraction)


def solve_node_criteria(trace: Trace, cfg: NodeConfig) -> Criteria:
    """The §4.3 criterion ``M`` for this node's capacity."""
    distances = reaccess_distances(trace.object_ids)
    return solve_criteria(
        distances, cfg.resolve_capacity(trace), trace.mean_object_size()
    )


def history_capacity(criteria: Criteria) -> int:
    """§4.4.2 sizing with a small floor for tiny test workloads."""
    return max(
        8,
        HistoryTable.paper_capacity(
            criteria.m_threshold, criteria.hit_rate, criteria.one_time_share
        ),
    )


def train_seed_model(trace: Trace, cfg: NodeConfig, criteria: Criteria):
    """Bootstrap classifier: cost-sensitive CART on the first trace day.

    Mirrors how a deployment starts — a model trained offline on
    yesterday's log before the node goes live (the retrainer then takes
    over the §4.4.3 daily refresh).  Returns ``None`` when the prefix is
    too small or single-class; the node then admits everything.
    """
    labels = one_time_labels(trace.object_ids, criteria.m_threshold)
    mask = trace.timestamps < cfg.train_seconds
    if int(mask.sum()) < cfg.min_train_samples:
        return None
    y = labels[mask]
    if np.unique(y).shape[0] < 2:
        return None
    fm = extract_features(trace).select(PAPER_FEATURE_NAMES)
    model = CostSensitiveClassifier(
        DecisionTreeClassifier(max_splits=cfg.max_splits, rng=cfg.seed),
        CostMatrix(fn_cost=1.0, fp_cost=cfg.cost_v),
    )
    return model.fit(fm.X[mask], y)


def classifier_admission(
    trace: Trace, criteria: Criteria, model
) -> OnlineClassifierAdmission:
    """The Fig.-4 filter of one node: the per-miss decision over a fresh
    tracker plus the §4.4.2 history table at its paper sizing.  The served
    node and :func:`replay_offline` both build theirs here."""
    return OnlineClassifierAdmission(
        model,
        OnlineFeatureTracker(trace),
        criteria.m_threshold,
        HistoryTable(history_capacity(criteria)),
    )


def replay_offline(trace: Trace, cfg: NodeConfig, *, model=None) -> SimulationResult:
    """The offline reference: ``simulate()`` over the identical stack.

    Builds the same cache, criterion, seed model (unless one is passed in)
    and admission as :class:`CacheNode` and replays the whole trace in one
    loop.  A server that replays the same trace (without retraining) must
    report the same hit/write counters — the acceptance test for the
    serving layer.
    """
    admission = None
    if cfg.classifier:
        criteria = solve_node_criteria(trace, cfg)
        if model is None:
            model = train_seed_model(trace, cfg, criteria)
        if model is not None:
            admission = classifier_admission(trace, criteria, model)
    return simulate(
        trace, build_cache(trace, cfg), admission=admission, policy_name=cfg.policy
    )


class CacheNode:
    """Single-writer cache-node state machine over a loaded trace.

    All mutation goes through :meth:`apply_batch` with a *contiguous*
    ascending run of trace positions starting at :attr:`processed` — the
    serving layer's sequencer guarantees that even when concurrent
    connections deliver requests out of order.

    Observability: every node owns (or shares) a
    :class:`~repro.obs.registry.MetricsRegistry` whose counters and gauges
    *read* :attr:`stats`, the cursor, the model version and the samplers
    when rendered — ``STATS`` and ``/metrics`` are the same numbers — and
    whose timing histograms are observed once per batch.  An optional
    :class:`~repro.obs.tracing.DecisionTrace` samples per-request events
    and an optional :class:`~repro.obs.drift.DriftMonitor` scores matured
    verdicts live.
    """

    def __init__(
        self,
        trace: Trace,
        cfg: NodeConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        tracer: DecisionTrace | None = None,
        drift: DriftMonitor | None = None,
        spans: Tracer | None = None,
    ):
        self.trace = trace
        self.cfg = cfg if cfg is not None else NodeConfig()
        self._oid_list = trace.object_ids.tolist()
        self._size_list = trace.catalog["size"][trace.object_ids].tolist()
        self._ts = trace.timestamps

        self.criteria: Criteria | None = None
        self.model = None
        self._predictor = None  # compiled twin of self.model (fastpath)
        self.model_version = 0
        self.tracker: OnlineFeatureTracker | None = None
        #: The filter the request loop asks on a miss (None: admit all).
        self.admission: AdmissionPolicy | None = None
        if self.cfg.classifier:
            self.criteria = solve_node_criteria(trace, self.cfg)
            self.model = train_seed_model(trace, self.cfg, self.criteria)
            if self.model is not None:
                self.model_version = 1
                self.admission = classifier_admission(
                    trace, self.criteria, self.model
                )
                self._predictor = self.admission.predictor
                self.tracker = self.admission.tracker
        # Where the admission captures each decision while a tracer is set.
        self._captured: dict[int, tuple] = {}

        self.cache = build_cache(trace, self.cfg)
        self.stats = CacheStats()
        self.processed = 0
        self.denied_mask = np.zeros(trace.n_accesses, dtype=bool)
        # Per-decision t_classify telemetry (misses only): the admission
        # sums gather + tree-walk nanoseconds; each micro-batch enters its
        # k decisions as k observations of their mean into a bounded
        # reservoir (exact count/mean, sampled percentiles).
        self.classify_timing = Reservoir(
            capacity=self.cfg.timing_capacity, seed=self.cfg.seed
        )

        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.drift = drift
        #: Optional span tracer shared with the serving layer/retrainer;
        #: ``None`` (the default) keeps the hot path span-free.
        self.spans = spans
        #: Write provenance (exact): every insertion under its
        #: :func:`~repro.obs.ledger.write_cause`, labelled with the deciding
        #: model version, and every denial as an avoided write.
        self.ledger = WriteLedger(registry=self.registry)
        self._bind_instruments()

    def _bind_instruments(self) -> None:
        """Register this node's families: all derived (read from the node
        when rendered) but the timing histograms a micro-batch observes."""
        reg = self.registry
        reg.counter(
            "repro_requests_total", "Requests processed by result.", ("result",),
            read=lambda: (("hit", self.stats.hits), ("miss", self.stats.misses)),
        )
        reg.counter(
            "repro_bytes_total", "Requested bytes by result.", ("result",),
            read=lambda: (
                ("hit", self.stats.bytes_hit),
                ("miss", self.stats.bytes_requested - self.stats.bytes_hit),
            ),
        )
        reg.counter(
            "repro_ssd_writes_total", "Objects written to the SSD tier.",
            read=lambda: self.stats.files_written,
        )
        reg.counter(
            "repro_ssd_bytes_written_total", "Bytes written to the SSD tier.",
            read=lambda: self.stats.bytes_written,
        )
        reg.counter(
            "repro_evictions_total", "Objects evicted from the cache.",
            read=lambda: self.stats.evictions,
        )
        reg.counter(
            "repro_admission_verdicts_total",
            "Admission outcomes on misses (denied / rectified admits).",
            ("verdict",),
            read=lambda: (
                ("denied", self.stats.admissions_denied),
                ("rectified", self.rectified_admits),
            ),
        )
        self._m_classify = reg.histogram(
            "repro_classify_seconds",
            "Per-decision classification time on misses (Eq.-6 t_classify; "
            "each micro-batch's decisions at their mean).",
            buckets=latency_buckets(),
        )
        reg.gauge(
            "repro_trace_position", "Replay cursor (requests processed).",
            read=lambda: self.processed,
        )
        reg.gauge(
            "repro_model_version", "Version of the installed classifier.",
            read=lambda: self.model_version,
        )
        # Request-lifecycle stage timing, one observation per micro-batch:
        # feature_build / batch_inference are the batch's summed per-miss
        # gather / tree-walk time, cache_ops the rest of the request loop;
        # queue_wait and reply are bound by the serving layer against the
        # same family.
        stage = reg.histogram(
            "repro_stage_seconds",
            "Request-lifecycle stage wall time (one observation per "
            "micro-batch; queue_wait counts every request at the batch "
            "mean).",
            ("stage",),
            buckets=latency_buckets(),
        )
        self._m_stage_feature = stage.labels(stage="feature_build")
        self._m_stage_inference = stage.labels(stage="batch_inference")
        self._m_stage_cache = stage.labels(stage="cache_ops")
        # Sampler accounting: decision-trace stream counts, the bounded
        # reservoirs' seen-vs-retained sizes and the span ring.
        reg.gauge(
            "repro_decision_trace_events",
            "DecisionTrace stream accounting (seen / sampled / dropped).",
            ("state",),
            read=self._trace_states,
        )
        reg.gauge(
            "repro_reservoir_seen",
            "Observations offered to a bounded timing reservoir.",
            ("reservoir",),
            read=lambda: (("t_classify", self.classify_timing.count),),
        )
        reg.gauge(
            "repro_reservoir_retained",
            "Samples currently retained by a bounded timing reservoir.",
            ("reservoir",),
            read=lambda: (("t_classify", self.classify_timing.retained),),
        )
        reg.gauge(
            "repro_spans",
            "Span-ring accounting (recorded / buffered / dropped).",
            ("state",),
            read=self._span_states,
        )

    def _trace_states(self):
        t = self.tracer
        counts = (t.seen, t.sampled, t.dropped) if t is not None else (0, 0, 0)
        return zip(("seen", "sampled", "dropped"), counts)

    def _span_states(self):
        s = self.spans
        counts = (s.recorded, len(s), s.dropped) if s is not None else (0, 0, 0)
        return zip(("recorded", "buffered", "dropped"), counts)

    # ------------------------------------------------------------ telemetry

    @property
    def trace_clock(self) -> float:
        """Trace time of the last processed request (0 before the first)."""
        return float(self._ts[self.processed - 1]) if self.processed else 0.0

    @property
    def rectified_admits(self) -> int:
        return getattr(self.admission, "rectified_admits", 0)

    def expected_oid(self, index: int) -> int:
        """The object id the loaded trace holds at ``index`` (validation)."""
        return self._oid_list[index]

    def classify_times(self) -> np.ndarray:
        """Retained per-decision classification seconds (misses only).

        Each micro-batch contributes one entry per decision it made, all
        at the batch's mean gather + tree-walk time (the served analogue of
        :attr:`repro.core.online.OnlineClassifierAdmission.decision_times`).
        Bounded by ``cfg.timing_capacity``; exact totals live on
        :attr:`classify_timing`.
        """
        return self.classify_timing.values()

    # ------------------------------------------------------------- mutation

    def install_model(self, model) -> int:
        """Atomically swap the admission classifier; returns the version.

        A plain attribute assignment: the processing loop reads the
        compiled twin once per batch and binds it into the admission before
        its loop starts, so a swap takes effect at the next batch boundary
        and can never split a batch — not even when called from inside a
        running one.  The tree is compiled here, off the hot path.
        """
        self.model = model
        self._predictor = fast_predictor(model) if model is not None else None
        self.model_version += 1
        logger.info(
            "installed model version %d", self.model_version,
            extra={"model_version": self.model_version},
        )
        return self.model_version

    def reset(self) -> None:
        """Fresh cache/statistics/telemetry state; the trained model is kept."""
        self.cache = build_cache(self.trace, self.cfg)
        self.stats = CacheStats()
        self.processed = 0
        self.denied_mask[:] = False
        self.classify_timing.clear()
        if self.tracker is not None:
            self.tracker.reset()
            self.admission.reset()
        if self.tracer is not None:
            self.tracer.clear()
        if self.drift is not None:
            self.drift.reset()
        if self.spans is not None:
            self.spans.clear()
        self.ledger.clear()
        # Zeroes what the registry itself stores — the observed histograms
        # (and any child a side-car pushed); every derived family already
        # follows the state cleared above.
        self.registry.reset()

    def process_batch(self, indices: list[int]) -> list[dict]:
        """Apply a contiguous run of trace requests; returns GET responses.

        :meth:`apply_batch` with each ``(result, denied)`` outcome spelled
        out as an ``index`` / ``hit`` / ``admitted`` / ``denied`` dict.
        """
        return [
            {
                "index": i,
                "hit": result.hit,
                "admitted": result.inserted,
                "denied": denied,
            }
            for i, (result, denied) in zip(indices, self.apply_batch(indices))
        ]

    def apply_batch(self, indices: list[int]) -> list[tuple[AccessResult, bool]]:
        """Apply a contiguous run of trace requests, in order.

        Returns the request loop's ``(result, denied)`` outcome per request.
        Semantics are those of the simulator loop over the same admission —
        it *is* that loop, one ``replay_range`` call per batch.
        """
        if not indices:
            return []
        spans = self.spans
        if spans is None or not spans.enabled:
            return self._process_batch(indices, None)
        # Root of the node-side span tree; the serving layer's
        # ``request_batch`` span (when present) wraps this via the
        # contextvar track, so the drained trace nests correctly.
        with spans.span(
            "process_batch", "node", n=len(indices), first=indices[0]
        ):
            return self._process_batch(indices, spans)

    def _process_batch(
        self, indices: list[int], spans
    ) -> list[tuple[AccessResult, bool]]:
        n = len(indices)
        lo = self.processed
        hi = lo + n
        if indices[0] != lo or indices[-1] != hi - 1:
            raise ValueError(
                f"batch [{indices[0]}, {indices[-1]}] is not the contiguous "
                f"run starting at {lo}"
            )

        # The retrainer swap point: one read of the compiled model (and of
        # the version label), bound into the admission before the loop
        # takes its callables, so neither can straddle a swap.
        predictor = self._predictor
        model_label = f"v{self.model_version}"
        tracer = self.tracer
        admission = self.admission if predictor is not None else None
        # Any other filter sitting in ``admission`` is asked as is, untimed.
        classifier = (
            admission if isinstance(admission, OnlineClassifierAdmission) else None
        )
        if classifier is not None:
            classifier.bind(
                predictor,
                model=self.model,
                capture=self._captured if tracer is not None else None,
            )
            decisions0 = classifier.decisions
            feature0, inference0 = classifier.feature_ns, classifier.inference_ns

        # The request loop is the simulator's, counted into a fresh
        # CacheStats (the batch's own counters).  Everything below it is
        # derived from those, the admission's counters and the per-request
        # outcomes it hands back, so none of it can feed back into cache
        # state.
        batch = CacheStats()
        oid_list, size_list = self._oid_list, self._size_list
        outcomes: list = []
        t_loop0 = time.perf_counter_ns()
        replay_range(
            self.cache, admission, None, batch, oid_list, size_list, lo, hi,
            outcomes=outcomes,
        )
        self.stats += batch
        self.processed = hi
        drift = self.drift
        denied_bytes = 0
        if batch.admissions_denied or drift is not None:
            denied = [d for _, d in outcomes]
        if batch.admissions_denied:
            self.denied_mask[lo:hi] = denied
            denied_bytes = sum(compress(size_list[lo:hi], denied))
        t_loop1 = time.perf_counter_ns()

        # Classification happened inside the loop, on misses only: the
        # batch's k decisions enter the per-decision instruments at their
        # mean, and the stage histograms get one observation each, with
        # cache_ops the remainder so the three still partition the loop.
        decisions = feature_ns = inference_ns = 0
        if classifier is not None:
            decisions = classifier.decisions - decisions0
            feature_ns = classifier.feature_ns - feature0
            inference_ns = classifier.inference_ns - inference0
            t_classify = (feature_ns + inference_ns) * 1e-9 / max(1, decisions)
            self.classify_timing.add_repeated(t_classify, decisions)
            self._m_classify.observe_many(t_classify, decisions)
            self._m_stage_feature.observe(feature_ns * 1e-9)
            self._m_stage_inference.observe(inference_ns * 1e-9)
        self._m_stage_cache.observe(
            (t_loop1 - t_loop0 - feature_ns - inference_ns) * 1e-9
        )
        if spans is not None:
            spans.add("cache_ops", "node", t_loop0, t_loop1,
                      args={"requests": n, "decisions": decisions,
                            "feature_ns": feature_ns,
                            "inference_ns": inference_ns})

        if drift is not None:
            drift.observe_range(lo, oid_list[lo:hi], denied)
        if tracer is not None:
            captured = self._captured
            for i, (result, was_denied) in zip(indices, outcomes):
                if not tracer.should_sample(i):
                    continue
                # Fig. 4 never asks on a hit: no verdict, no feature row.
                verdict, features, spent_ns = captured.get(i, (None, None, 0))
                tracer.record(
                    {
                        "index": i,
                        "object_id": oid_list[i],
                        "trace_time": float(self._ts[i]),
                        "hit": result.hit,
                        "verdict": None if verdict is None else int(verdict),
                        "denied": was_denied,
                        # A one-time verdict on a miss that was admitted
                        # anyway: only the history table does that.
                        "rectified": bool(verdict == ONE_TIME and not was_denied),
                        "features": features,
                        "t_classify": spent_ns * 1e-9,
                    }
                )
            captured.clear()

        # Write provenance (exact, per batch), labelled with the model
        # version that served this batch: one cause per inserted outcome,
        # grouped into one ledger record per cause.
        if batch.files_written:
            by_cause: dict[str, list[int]] = {}
            for size, (result, _) in zip(size_list[lo:hi], outcomes):
                if result.inserted:
                    tally = by_cause.setdefault(write_cause(result), [0, 0])
                    tally[0] += 1
                    tally[1] += size
            for cause, (count, nbytes) in by_cause.items():
                self.ledger.record_write(cause, nbytes, model=model_label, n=count)
        if batch.admissions_denied:
            self.ledger.record_avoided(
                denied_bytes, model=model_label, n=batch.admissions_denied
            )
        return outcomes


# --------------------------------------------------------------------------
# Serving layer
# --------------------------------------------------------------------------

_SHUTDOWN = object()

#: Socket read size for the frame loop — large enough that a backlogged
#: connection drains thousands of 16-byte frames per syscall.
_READ_CHUNK_BYTES = 256 * 1024


@dataclass(slots=True)
class _Request:
    index: int
    conn: "_Connection"
    t_enqueue: int  # perf_counter_ns at enqueue (queue-wait / latency base)


#: Coalesce at most this many outbound bytes into one socket write before
#: draining — bounds per-wakeup latency without paying one drain per frame.
_WRITE_COALESCE_BYTES = 256 * 1024


class _Connection:
    """One client connection with an ordered, decoupled outbound path.

    Responses are encoded eagerly (to wire bytes) and queued; a dedicated
    task drains the queue so the node's writer loop never blocks on a slow
    client's socket, joining every immediately-available frame into a
    single ``write`` + ``drain`` — under pipelining this turns hundreds of
    per-frame syscall round trips per batch into a handful.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._outbound: asyncio.Queue = asyncio.Queue()
        self._task = asyncio.ensure_future(self._run())
        self._closed = False

    def send(self, message: dict) -> None:
        if not self._closed:
            self._outbound.put_nowait(encode_message(message))

    def send_bytes(self, frame: bytes) -> None:
        if not self._closed:
            self._outbound.put_nowait(frame)

    async def _run(self) -> None:
        writer = self._writer
        queue = self._outbound
        try:
            stopping = False
            while not stopping:
                frame = await queue.get()
                if frame is _SHUTDOWN:
                    break
                chunks = [frame]
                size = len(frame)
                while size < _WRITE_COALESCE_BYTES:
                    try:
                        frame = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if frame is _SHUTDOWN:
                        stopping = True
                        break
                    chunks.append(frame)
                    size += len(frame)
                writer.write(b"".join(chunks) if len(chunks) > 1 else chunks[0])
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._closed = True
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def close(self) -> None:
        if not self._closed:
            self._outbound.put_nowait(_SHUTDOWN)
        with contextlib.suppress(asyncio.CancelledError):
            await self._task


class CacheNodeServer:
    """Asyncio TCP server around one :class:`CacheNode`.

    * bounded request queue (``queue_depth``) — a full queue suspends the
      connection handler, i.e. TCP backpressure;
    * single writer task — sequences GETs by trace index and applies them
      in micro-batches of at most ``cfg.max_batch``;
    * graceful drain — :meth:`shutdown` (also wired to SIGTERM/SIGINT by
      :func:`run_server`) stops accepting work, processes everything
      already accepted, answers the stragglers with an error, then closes;
    * observability side-car — with ``metrics_port`` an HTTP
      :class:`~repro.obs.exporter.MetricsExporter` serves ``/metrics``,
      ``/healthz`` and ``/statsz`` on its own port, and with
      ``retrain_on_drift`` a drift alarm from the node's monitor schedules
      an immediate retrain (the observable trigger replacing the blind
      schedule).
    """

    def __init__(
        self,
        node: CacheNode,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_depth: int = 1024,
        retrainer=None,
        metrics_host: str = "127.0.0.1",
        metrics_port: int | None = None,
        retrain_on_drift: bool = False,
    ):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.node = node
        self.host = host
        self.port = port
        self.retrainer = retrainer
        self.retrain_on_drift = retrain_on_drift
        self._queue: asyncio.Queue = asyncio.Queue(queue_depth)
        self._queued_requests = 0  # requests inside _queue (items are lists)
        self._pending: dict[int, _Request] = {}
        self._connections: set[_Connection] = set()
        self._server: asyncio.AbstractServer | None = None
        self._writer_task: asyncio.Task | None = None
        self._retrain_task: asyncio.Task | None = None
        self._drift_retrain_task: asyncio.Task | None = None
        self._drift_alarms_seen = 0
        self._draining = False
        self._closed = asyncio.Event()
        self.started_at = 0.0
        self.service_latencies = Reservoir(
            capacity=node.cfg.timing_capacity, seed=node.cfg.seed + 1
        )
        reg = node.registry
        self._m_latency = reg.histogram(
            "repro_service_latency_seconds",
            "Enqueue-to-response time inside the server.",
            buckets=latency_buckets(),
        )
        reg.gauge(
            "repro_queue_depth", "Requests queued or awaiting sequencing.",
            read=lambda: self.queue_depth,
        )
        reg.gauge(
            "repro_connections", "Open client connections.",
            read=lambda: len(self._connections),
        )
        # The node registered the stage histogram and both reservoir
        # families; the serving layer adds its own children to each.
        stage = reg.get("repro_stage_seconds")
        self._m_stage_queue = stage.labels(stage="queue_wait")
        self._m_stage_reply = stage.labels(stage="reply")
        reg.gauge(
            "repro_reservoir_seen", labelnames=("reservoir",),
            read=lambda: (("service_latency", self.service_latencies.count),),
        )
        reg.gauge(
            "repro_reservoir_retained", labelnames=("reservoir",),
            read=lambda: (("service_latency", self.service_latencies.retained),),
        )
        self.exporter: MetricsExporter | None = None
        if metrics_port is not None:
            from repro.server.metrics import metrics_snapshot

            self.exporter = MetricsExporter(
                reg,
                host=metrics_host,
                port=metrics_port,
                statsz=lambda: metrics_snapshot(self.node, self),
                healthz=self._healthz,
            )

    def _healthz(self):
        body = {
            "status": "draining" if self._draining else "ok",
            "processed": self.node.processed,
            "trace_requests": self.node.trace.n_accesses,
            "uptime_seconds": (
                time.perf_counter() - self.started_at if self.started_at else 0.0
            ),
        }
        return (body, 503) if self._draining else body

    # -------------------------------------------------------------- control

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.perf_counter()
        self._writer_task = asyncio.ensure_future(self._writer_loop())
        if self.retrainer is not None:
            self._retrain_task = asyncio.ensure_future(self.retrainer.run())
        if self.exporter is not None:
            await self.exporter.start()

    async def shutdown(self) -> None:
        """Drain in-flight requests, then stop.  Idempotent."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        logger.info("draining: %d request(s) in flight", self.queue_depth)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._queue.put(_SHUTDOWN)
        if self._writer_task is not None:
            await self._writer_task
        for task in (self._retrain_task, self._drift_retrain_task):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        if self.exporter is not None:
            await self.exporter.stop()
        for conn in list(self._connections):
            await conn.close()
        self._closed.set()
        logger.info(
            "server closed after %d processed request(s)", self.node.processed
        )

    async def wait_closed(self) -> None:
        await self._closed.wait()

    @property
    def queue_depth(self) -> int:
        return self._queued_requests + len(self._pending)

    # ------------------------------------------------------------ sequencer

    async def _writer_loop(self) -> None:
        queue, pending, node = self._queue, self._pending, self.node
        stopping = False

        def absorb(item) -> None:
            # One list of validated GETs per decoded chunk.  The sequencer
            # owns ``pending``, so this is the one place a repeated index is
            # caught — whether its twin is already served, parked, or
            # earlier in this very list — and every frame gets one reply.
            nonlocal stopping
            if item is _SHUTDOWN:
                stopping = True
                return
            processed = node.processed
            for req in item:
                if (
                    req.index < processed
                    or pending.setdefault(req.index, req) is not req
                ):
                    self._send_get_error(req, "index already served")
            self._queued_requests -= len(item)

        while True:
            if not stopping and node.processed not in pending:
                absorb(await queue.get())
            # Drain whatever else is already queued before batching, so one
            # inference call covers every currently-available request.
            while True:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                absorb(item)

            batch = self._take_batch()
            if batch:
                self._process(batch)
                # Yield so handlers/clients run between micro-batches.
                await asyncio.sleep(0)
                continue
            if stopping:
                # Nothing more can be sequenced: any leftovers are gapped
                # (their predecessors never arrived before the drain).
                for req in pending.values():
                    self._send_get_error(
                        req,
                        "server drained before preceding requests arrived",
                    )
                pending.clear()
                return

    def _take_batch(self) -> list[_Request]:
        pending = self._pending
        i = self.node.processed
        limit = self.node.cfg.max_batch
        batch: list[_Request] = []
        while len(batch) < limit:
            req = pending.pop(i, None)
            if req is None:
                break
            batch.append(req)
            i += 1
        return batch

    @staticmethod
    def _send_get_error(req: _Request, error: str) -> None:
        req.conn.send_bytes(pack_get_error(req.index, error))

    def _process(self, batch: list[_Request]) -> None:
        node = self.node
        spans = node.spans
        root = None
        t_dequeue = time.perf_counter_ns()
        if spans is not None and spans.enabled:
            # Root of the per-batch span tree, backdated to the earliest
            # enqueue so the queue_wait child nests inside it; the node's
            # process_batch span inherits the track via the contextvar.
            root = spans.span(
                "request_batch", "server",
                start_ns=min(req.t_enqueue for req in batch),
                n=len(batch), first=batch[0].index,
            ).__enter__()
            spans.add("queue_wait", "server", root.start_ns, t_dequeue)
        try:
            try:
                outcomes = node.apply_batch([req.index for req in batch])
            except Exception as exc:  # defensive: fail the batch, keep serving
                logger.exception("batch of %d request(s) failed", len(batch))
                for req in batch:
                    self._send_get_error(req, str(exc))
                return
            t_reply0 = time.perf_counter_ns()
            # Latency instruments amortise per micro-batch, like the
            # t_classify reservoir: each request contributes the batch's
            # mean enqueue-to-reply / queue-wait time, keeping counts and
            # sums exact while the reply loop pays one histogram/reservoir
            # update per batch instead of three per request.
            n = len(batch)
            total_enqueue = 0
            for req in batch:
                total_enqueue += req.t_enqueue
            mean_lat = (t_reply0 * n - total_enqueue) * 1e-9 / n
            self.service_latencies.add_repeated(mean_lat, n)
            self._m_latency.observe_many(mean_lat, n)
            self._m_stage_queue.observe_many(
                (t_dequeue * n - total_enqueue) * 1e-9 / n, n
            )
            # Reply frames, packed straight from the loop's outcomes, for
            # one connection coalesce into a single buffer flushed once per
            # micro-batch — one writer-queue put per connection instead of
            # per request.
            bufs: dict[_Connection, bytearray] = {}
            for req, (result, denied) in zip(batch, outcomes):
                buf = bufs.get(req.conn)
                if buf is None:
                    bufs[req.conn] = buf = bytearray()
                buf += pack_get_response(
                    req.index, result.hit, result.inserted, denied
                )
            for conn, buf in bufs.items():
                conn.send_bytes(bytes(buf))
            t_reply1 = time.perf_counter_ns()
            self._m_stage_reply.observe((t_reply1 - t_reply0) * 1e-9)
            if root is not None:
                spans.add("reply", "server", t_reply0, t_reply1)
            self._maybe_retrain_on_drift()
        finally:
            if root is not None:
                root.__exit__(None, None, None)

    def _maybe_retrain_on_drift(self) -> None:
        """Schedule an immediate retrain when the drift alarm has fired."""
        drift = self.node.drift
        if (
            drift is None
            or not self.retrain_on_drift
            or self.retrainer is None
            or drift.alarms <= self._drift_alarms_seen
        ):
            return
        if self._drift_retrain_task is not None and not self._drift_retrain_task.done():
            return  # one retrain in flight absorbs any alarm burst
        self._drift_alarms_seen = drift.alarms
        logger.warning(
            "drift alarm -> scheduling retrain (window %s, accuracy %s)",
            *(drift.last_alarm if drift.last_alarm else ("?", "?")),
        )
        self._drift_retrain_task = asyncio.ensure_future(
            self.retrainer.retrain_now()
        )

    # ---------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        decoder = FrameDecoder()
        try:
            while True:
                # Chunked reads through the incremental decoder: one socket
                # read yields every pipelined frame it carried (binary GETs
                # and JSON control verbs interleave freely on a connection).
                data = await reader.read(_READ_CHUNK_BYTES)
                if not data:
                    if decoder.pending:
                        conn.send(
                            error_response("", "protocol error: EOF inside frame")
                        )
                    break
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    # Frames parsed ahead of the violation are still valid
                    # requests; serve them, then report and hang up.
                    await self._dispatch_frames(exc.frames, conn)
                    conn.send(error_response("", f"protocol error: {exc}"))
                    break
                await self._dispatch_frames(frames, conn)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(conn)
            await conn.close()

    async def _dispatch_frames(self, frames: list, conn: _Connection) -> None:
        """Dispatch one decoded chunk, batch-enqueueing GET runs.

        Consecutive GETs — the open-loop pipelining case, where one socket
        read carries thousands of 16-byte frames — validate together and
        enter the sequencer queue as a single list item: one ``put`` per
        chunk instead of per request.  Any other frame flushes the run
        first, so queue order still matches wire order.
        """
        batch: list[_Request] = []
        t_ns = time.perf_counter_ns()
        # Validation state is loop-invariant between awaits (the event loop
        # is single-threaded), so hoist it and inline the happy path; a
        # failed check asks _get_error for the reply.  ``draining`` is
        # re-read after every await — it can flip there.
        expected_oid = self.node.expected_oid
        n_accesses = self.node.trace.n_accesses
        request = _Request
        draining = self._draining
        for frame in frames:
            if type(frame) is not dict and frame[0] == BIN_GET:
                index = frame[1]
                oid = frame[2]
                if (
                    not draining
                    and index < n_accesses
                    and (oid is None or oid == expected_oid(index))
                ):
                    batch.append(request(index, conn, t_ns))
                else:
                    conn.send_bytes(
                        pack_get_error(index, self._get_error(index, oid))
                    )
                continue
            if batch:
                await self._enqueue(batch)
                batch = []
            if type(frame) is dict:
                await self._dispatch(frame, conn)
            else:  # a response op (BIN_GET_OK / BIN_GET_ERR) sent by a client
                conn.send_bytes(
                    pack_get_error(frame[1], "unexpected binary response op")
                )
            draining = self._draining
        if batch:
            await self._enqueue(batch)

    async def _enqueue(self, batch: list[_Request]) -> None:
        self._queued_requests += len(batch)
        await self._queue.put(batch)

    def _get_error(self, index: int, oid) -> str:
        """Why a GET frame cannot be queued (a repeated index is the
        sequencer's call — see ``absorb``)."""
        if self._draining:
            return "server is draining"
        if index >= self.node.trace.n_accesses:
            return "index out of range"
        return "oid does not match the server's trace at this index"

    async def _dispatch(self, message: dict, conn: _Connection) -> None:
        op = str(message.get("op", "")).upper()
        if op == "STATS":
            from repro.server.metrics import metrics_snapshot

            conn.send(
                {"ok": True, "op": "STATS", "stats": metrics_snapshot(self.node, self)}
            )
        elif op == "PING":
            conn.send({"ok": True, "op": "PING"})
        elif op == "TRACE":
            self._dispatch_trace(message, conn)
        elif op == "SPANS":
            self._dispatch_spans(message, conn)
        elif op == "RESET":
            if self.queue_depth:
                conn.send(error_response("RESET", "requests still in flight"))
            else:
                self.node.reset()
                self.service_latencies.clear()
                self._drift_alarms_seen = 0
                conn.send({"ok": True, "op": "RESET"})
        elif op == "RELOAD":
            if self.retrainer is None:
                conn.send(error_response("RELOAD", "no retrainer configured"))
            else:
                info = await self.retrainer.retrain_now()
                conn.send({"ok": True, "op": "RELOAD", **info})
        else:
            conn.send(error_response(op, f"unknown op {op!r}"))

    def _dispatch_trace(self, message: dict, conn: _Connection) -> None:
        tracer = self.node.tracer
        if tracer is None:
            conn.send(error_response("TRACE", "decision tracing disabled"))
            return
        limit = message.get("limit")
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
        ):
            conn.send(
                error_response("TRACE", "limit must be a non-negative integer")
            )
            return
        seen, sampled, dropped = tracer.seen, tracer.sampled, tracer.dropped
        # One frame drains at most 10k events (bounded response size); an
        # omitted limit means "everything buffered" up to that cap.
        events = tracer.events(
            limit=10_000 if limit is None else min(limit, 10_000),
            clear=bool(message.get("clear")),
        )
        conn.send(
            {
                "ok": True,
                "op": "TRACE",
                "events": events,
                "seen": seen,
                "sampled": sampled,
                "dropped": dropped,
                "sample_rate": tracer.sample_rate,
            }
        )

    def _dispatch_spans(self, message: dict, conn: _Connection) -> None:
        spans = self.node.spans
        if spans is None:
            conn.send(error_response("SPANS", "span tracing disabled"))
            return
        limit = message.get("limit")
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool) or limit < 0
        ):
            conn.send(
                error_response("SPANS", "limit must be a non-negative integer")
            )
            return
        recorded, dropped = spans.recorded, spans.dropped
        # Same bounded-drain contract as TRACE: at most 10k spans a frame.
        events = spans.events(
            limit=10_000 if limit is None else min(limit, 10_000),
            clear=bool(message.get("clear")),
        )
        conn.send(
            {
                "ok": True,
                "op": "SPANS",
                "spans": events,
                "recorded": recorded,
                "dropped": dropped,
                "capacity": spans.capacity,
            }
        )


async def run_server(
    node: CacheNode,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    queue_depth: int = 1024,
    retrainer=None,
    metrics_host: str = "127.0.0.1",
    metrics_port: int | None = None,
    retrain_on_drift: bool = False,
    ready: asyncio.Event | None = None,
) -> CacheNodeServer:
    """Start a node server, wire SIGINT/SIGTERM to a graceful drain, and
    serve until shut down.  Returns the (closed) server for inspection."""
    server = CacheNodeServer(
        node,
        host,
        port,
        queue_depth=queue_depth,
        retrainer=retrainer,
        metrics_host=metrics_host,
        metrics_port=metrics_port,
        retrain_on_drift=retrain_on_drift,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    handled: list[signal.Signals] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(server.shutdown())
            )
            handled.append(sig)
        except (NotImplementedError, RuntimeError):  # non-unix loops
            pass
    logger.info(
        "repro cache node listening on %s:%d (%s trace requests, "
        "classifier=%s%s)",
        server.host,
        server.port,
        format(node.trace.n_accesses, ","),
        "on" if node.model is not None else "off",
        (
            f", metrics on {server.exporter.host}:{server.exporter.port}"
            if server.exporter is not None
            else ""
        ),
        extra={"port": server.port, "trace_requests": node.trace.n_accesses},
    )
    if ready is not None:
        ready.set()
    try:
        await server.wait_closed()
    finally:
        for sig in handled:
            loop.remove_signal_handler(sig)
    return server
