"""A pinned served replay with a fake clock: deterministic ``/metrics`` text.

Drives ``CacheNodeServer._process`` directly (no sockets) over the first
2,000 requests of a trace with the classifier on, a drift monitor and a
retrainer attached, one ``deploy_model`` half way and one ``retrain_now``
at the end, so every family the serving stack registers carries a value.
``time.perf_counter_ns`` is replaced by a counter advancing 1 µs per read
while the replay runs, which pins the histograms as well.

``golden_node_metrics.prom`` was recorded from :func:`pinned_exposition`
at the commit before the registry became a view (``af2f30d``); the golden
test keeps the exposition byte-identical to it.
"""

import asyncio
import itertools
import time
from unittest import mock

from repro.obs.drift import DriftMonitor
from repro.obs.registry import MetricsRegistry
from repro.server.node import CacheNode, CacheNodeServer, NodeConfig, _Request
from repro.server.retrainer import Retrainer

REQUESTS = 2_000
BATCH_SIZES = (5, 256, 64, 1)


class Sink:
    """Stands in for a connection: replies are dropped."""

    def send_bytes(self, frame: bytes) -> None:
        pass


def drive(server: CacheNodeServer, lo: int, hi: int, conn=None) -> None:
    """One ``_process`` call over trace positions ``[lo, hi)``."""
    conn = conn if conn is not None else Sink()
    server._process(
        [_Request(i, conn, time.perf_counter_ns()) for i in range(lo, hi)]
    )


def pinned_stack(trace):
    """The replayed ``(node, server, retrainer)`` sharing one registry."""
    ticks = itertools.count(0, 1000)
    with mock.patch.object(time, "perf_counter_ns", lambda: next(ticks)):
        registry = MetricsRegistry()
        node = CacheNode(
            trace, NodeConfig(capacity_fraction=0.02, seed=3), registry=registry
        )
        node.drift = DriftMonitor(
            node.criteria.m_threshold,
            window_size=250,
            alarm_threshold=0.9,
            registry=registry,
        )
        server = CacheNodeServer(node)
        retrainer = Retrainer(node)
        sizes = itertools.cycle(BATCH_SIZES)
        lo = 0
        while lo < REQUESTS:
            if lo >= REQUESTS // 2 and node.model_version == 1:
                node.install_model(node.model)
            hi = min(lo + next(sizes), REQUESTS)
            drive(server, lo, hi)
            lo = hi
        asyncio.run(retrainer.retrain_now())
    return node, server, retrainer


def pinned_exposition(trace) -> str:
    return pinned_stack(trace)[0].registry.render_prometheus()
