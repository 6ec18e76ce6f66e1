"""The serving runtime: an asyncio cache node plus its load generator.

Turns the batch-simulation stack into a runnable service:

* :mod:`repro.server.protocol`  — the wire format: binary GET frames,
  length-prefixed JSON control verbs (STATS / RELOAD / RESET / TRACE /
  SPANS / PING).
* :mod:`repro.server.node`      — :class:`CacheNode` (single-writer cache
  state machine; micro-batches replayed through the offline loop, the
  classifier asked at miss time) and
  :class:`CacheNodeServer` (asyncio TCP front end with a bounded request
  queue, trace-order sequencing and graceful drain);
  :func:`replay_offline` builds the bit-identical simulator reference.
* :mod:`repro.server.retrainer` — the §4.4.3 daily retraining loop as a
  background task with matured labels and atomic model swap.
* :mod:`repro.server.metrics`   — STATS snapshots and their table form.
* :mod:`repro.server.loadgen`   — open-loop trace-replay client reporting
  achieved throughput and latency percentiles.

Observability (metrics registry, HTTP exporter, decision tracing, drift
monitoring, structured logging) lives in :mod:`repro.obs` and is threaded
through every piece above; ``repro serve --metrics-port`` exposes it.

CLI: ``repro serve`` / ``repro loadgen`` / ``repro trace-dump`` /
``repro stats --watch``.
"""

from repro.server.loadgen import (
    LoadgenConfig,
    LoadgenResult,
    fetch_stats,
    run_loadgen,
)
from repro.server.metrics import (
    format_metrics,
    metrics_snapshot,
    timing_stats,
)
from repro.server.node import (
    CacheNode,
    CacheNodeServer,
    NodeConfig,
    build_cache,
    replay_offline,
    run_server,
    solve_node_criteria,
    train_seed_model,
)
from repro.server.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    read_message,
    write_message,
)
from repro.server.retrainer import Retrainer, RetrainerConfig

__all__ = [
    "LoadgenConfig",
    "LoadgenResult",
    "fetch_stats",
    "run_loadgen",
    "format_metrics",
    "metrics_snapshot",
    "timing_stats",
    "CacheNode",
    "CacheNodeServer",
    "NodeConfig",
    "build_cache",
    "replay_offline",
    "run_server",
    "solve_node_criteria",
    "train_seed_model",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "read_message",
    "write_message",
    "Retrainer",
    "RetrainerConfig",
]
