#!/usr/bin/env python
"""Domain scenario 11 — serve a cache node over TCP and replay a trace.

Runs the whole serving stack in one process, end to end:

* a :class:`~repro.server.node.CacheNodeServer` (asyncio TCP) wrapping a
  DRAM+SSD hierarchical cache with the online admission classifier;
* the open-loop load generator replaying the same trace over several
  concurrent connections;
* an offline ``simulate()`` of the identical stack, to show the served
  replay reproduces the batch simulator's cache statistics exactly;
* a :class:`~repro.server.retrainer.Retrainer` pass at the end, refitting
  the cost-sensitive CART on matured labels and atomically swapping the
  model (what the background daily schedule — or a RELOAD — does live).

The same components are available from the command line:

    repro serve   --trace t.npz --port 8642
    repro loadgen --trace t.npz --port 8642 --rate 5000

Run:  python examples/serve_and_replay.py
"""

import asyncio

from repro.server.loadgen import LoadgenConfig, run_loadgen
from repro.server.metrics import format_metrics, metrics_snapshot
from repro.server.node import CacheNode, CacheNodeServer, NodeConfig, replay_offline
from repro.server.retrainer import Retrainer, RetrainerConfig
from repro.trace import WorkloadConfig, generate_trace

RATE = 20_000.0
CONNECTIONS = 6


async def serve_and_replay(trace, cfg: NodeConfig):
    # No background retrainer here: a mid-replay model swap would (correctly)
    # change admissions, and this demo checks exact parity with the offline
    # batch run of the static seed model.
    node = CacheNode(trace, cfg)
    server = CacheNodeServer(node, port=0)
    await server.start()
    print(f"node listening on 127.0.0.1:{server.port} (model v{node.model_version})")
    try:
        result = await run_loadgen(
            trace,
            LoadgenConfig(port=server.port, rate=RATE, connections=CONNECTIONS),
        )
    finally:
        await server.shutdown()
    return node, result


def main(n_objects: int = 4000) -> None:
    trace = generate_trace(WorkloadConfig(n_objects=n_objects, seed=21))
    cfg = NodeConfig(capacity_fraction=0.02)
    print(
        f"replaying {trace.n_accesses:,} requests over {CONNECTIONS} "
        f"connections at {RATE:,.0f} req/s offered"
    )

    node, result = asyncio.run(serve_and_replay(trace, cfg))
    print("\n=== load generator (client view) ===")
    print(result.summary())

    print("\n=== server metrics ===")
    print(format_metrics(metrics_snapshot(node)))

    # The served replay is bit-identical to the offline batch simulation
    # of the same trace + admission stack — concurrency is invisible to
    # cache state thanks to the single-writer sequencer.
    ref = replay_offline(trace, cfg)
    assert node.stats.hits == ref.stats.hits
    assert node.stats.files_written == ref.stats.files_written
    assert node.stats.admissions_denied == ref.stats.admissions_denied
    print(
        f"\nparity with offline simulate(): hits {node.stats.hits:,}, "
        f"SSD writes {node.stats.files_written:,}, "
        f"denied {node.stats.admissions_denied:,} — exact match"
    )

    # ---- daily retraining, off the hot path: refit on matured labels and
    # atomically swap the model (a live node does this in the background or
    # on a RELOAD request).
    retrainer = Retrainer(node, RetrainerConfig())
    record = asyncio.run(retrainer.retrain_now())
    print(
        f"\nretrain at t={record['t_cut'] / 3600:.1f} h: "
        f"{record['n_train']:,} matured samples → model v{record['model_version']}"
        f" (worst 10k-window accuracy {record['worst_window_accuracy']:.3f})"
    )


if __name__ == "__main__":
    main()
