"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``stats``       synthesise a trace and print its §2.2 statistics, or — with
                ``--watch`` — poll a live node's ``/statsz`` endpoint
``generate``    synthesise a trace and save it (.npz)
``simulate``    replay a trace through one policy/capacity
``experiment``  full Original/Proposal/Ideal/Belady comparison
``sweep``       capacity sweep for one policy (Fig.-2/6 style rows)
``grid``        the full policies × configs × capacities grid, fanned out
                over a process pool (``--workers``,
                ``--start-method`` fork/spawn/forkserver/inline)
``serve``       run the asyncio cache-node service on a trace
                (``--metrics-port`` adds the HTTP observability side-car)
``loadgen``     open-loop trace replay against a running ``serve`` node
``trace-dump``  drain a serving node's sampled decision-trace ring buffer
                (the TCP ``TRACE`` verb) as JSON lines
``spans-dump``  drain a serving node's span ring buffer (the TCP ``SPANS``
                verb) as Chrome trace-event JSON for Perfetto
``scenario``    deterministic fault-injection replay against the two-tier
                cluster (node kills/restarts, hot-key floods, rolling
                deploys) with per-phase stats and an oracle gap
``staging``     head-to-head admission comparison — no-admission vs the
                paper's classifier vs the Flashield-style flashiness bar
                vs their composition — judged at the device (writes, WA,
                CMT pressure, projected lifetime) per capacity point

All commands accept either ``--trace file.npz`` or generator parameters
(``--objects``, ``--days``, ``--seed``).  ``serve`` and ``loadgen`` must be
given the *same* trace (file or generator parameters) — the load generator
replays trace positions and the server validates them against its catalog.
"""

from __future__ import annotations

import argparse
import sys

from repro.cache import make_policy, simulate
from repro.config import paper_capacity_fractions, paper_equivalent_bytes
from repro.core.pipeline import run_experiment
from repro.trace.generator import WorkloadConfig, generate_trace
from repro.trace.io import load_trace, save_trace
from repro.trace.stats import compute_stats, type_request_histogram

__all__ = ["main", "build_parser"]


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", help="load a saved trace (.npz) instead of generating")
    p.add_argument("--objects", type=int, default=25_000, help="objects to synthesise")
    p.add_argument("--days", type=float, default=9.0)
    p.add_argument("--seed", type=int, default=0)


def _add_log_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--log-level", default="info",
                   choices=["debug", "info", "warning", "error"],
                   help="stdlib logging level for the repro.* loggers")
    p.add_argument("--log-json", action="store_true",
                   help="emit logs as JSON lines (same encoding as TRACE events)")


def _resolve_trace(args):
    if args.trace:
        return load_trace(args.trace)
    return generate_trace(
        WorkloadConfig(n_objects=args.objects, days=args.days, seed=args.seed)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="One-time-access-exclusion SSD caching (ICPP 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="trace statistics (§2.2) and type histogram")
    _add_trace_args(p)
    p.add_argument("--types", action="store_true", help="print the Fig.-3 histogram")
    p.add_argument("--watch", action="store_true",
                   help="poll a live node's /statsz instead of analysing a trace")
    p.add_argument("--stats-host", default="127.0.0.1",
                   help="metrics exporter host (with --watch)")
    p.add_argument("--stats-port", type=int, default=9642,
                   help="metrics exporter port (with --watch)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (with --watch)")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N polls (default: until interrupted)")

    p = sub.add_parser("generate", help="synthesise a trace and save it")
    _add_trace_args(p)
    p.add_argument("output", help="output path (.npz)")

    p = sub.add_parser("simulate", help="replay a trace through one cache")
    _add_trace_args(p)
    p.add_argument("--policy", default="lru")
    p.add_argument("--capacity-fraction", type=float, default=0.01,
                   help="capacity as a fraction of the trace footprint")

    p = sub.add_parser("experiment", help="Original/Proposal/Ideal/Belady comparison")
    _add_trace_args(p)
    p.add_argument("--policy", default="lru")
    p.add_argument("--capacity-fraction", type=float, default=0.01)
    p.add_argument("--cost-v", type=float, default=None)
    p.add_argument("--no-belady", action="store_true")

    p = sub.add_parser("sweep", help="hit rate across the paper's capacity axis")
    _add_trace_args(p)
    p.add_argument("--policy", default="lru")

    p = sub.add_parser(
        "grid",
        help="parallel policies × configs × capacities evaluation grid "
             "(Figs. 6–10)",
    )
    _add_trace_args(p)
    p.add_argument("--policies", nargs="+", default=None,
                   help="replacement policies to sweep (default: the "
                        "paper's five)")
    p.add_argument("--fractions", nargs="+", type=float, default=None,
                   help="capacity axis as footprint fractions (default: the "
                        "paper's 2–20 GB sweep)")
    p.add_argument("--metric", default="hit_rate",
                   choices=["hit_rate", "byte_hit_rate", "file_write_rate",
                            "byte_write_rate"])
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: min(blocks, cpus); "
                        "0 or 1 computes inline)")
    p.add_argument("--start-method", default=None,
                   help="multiprocessing start method: inline, fork, spawn "
                        "or forkserver (default: the platform's own)")

    p = sub.add_parser("analyze", help="workload analysis: Zipf, reuse, stack profile")
    _add_trace_args(p)

    p = sub.add_parser(
        "report", help="markdown report: Original/Proposal/Ideal/Belady per policy"
    )
    _add_trace_args(p)
    p.add_argument("output", help="output markdown path")
    p.add_argument("--policies", nargs="+", default=["lru", "fifo"])
    p.add_argument("--capacity-fraction", type=float, default=0.01)

    p = sub.add_parser("serve", help="run the asyncio cache-node service")
    _add_trace_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642, help="0 picks a free port")
    p.add_argument("--policy", default="lru")
    p.add_argument("--capacity-fraction", type=float, default=0.01)
    p.add_argument("--dram-fraction", type=float, default=0.05,
                   help="DRAM tier as a fraction of SSD capacity; 0 disables")
    p.add_argument("--no-classifier", action="store_true",
                   help="admit every miss (the paper's Original baseline)")
    p.add_argument("--cost-v", type=float, default=2.0)
    p.add_argument("--max-batch", type=int, default=256,
                   help="max requests per micro-batched inference call")
    p.add_argument("--no-uvloop", action="store_true",
                   help="stay on the stdlib asyncio loop even when uvloop "
                        "is installed")
    p.add_argument("--queue-depth", type=int, default=1024,
                   help="bounded request queue (backpressure threshold)")
    p.add_argument("--retrain-period", type=float, default=0.0,
                   help="trace seconds between retrains; 0 disables the "
                        "background retrainer (RELOAD still unavailable)")
    p.add_argument("--retrain-hour", type=float, default=5.0)
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve /metrics, /healthz and /statsz over HTTP on "
                        "this port (0 picks a free one); omit to disable")
    p.add_argument("--metrics-host", default="127.0.0.1")
    p.add_argument("--trace-sample", type=float, default=0.0,
                   help="fraction of admission decisions recorded in the "
                        "TRACE ring buffer (0 disables tracing)")
    p.add_argument("--trace-capacity", type=int, default=4096,
                   help="decision-trace ring-buffer size (events kept)")
    p.add_argument("--spans", action="store_true",
                   help="record request-lifecycle spans (drain with "
                        "'repro spans-dump'; off by default — the disabled "
                        "path is a strict no-op)")
    p.add_argument("--spans-capacity", type=int, default=16_384,
                   help="span ring-buffer size (finished spans kept)")
    p.add_argument("--drift-window", type=int, default=10_000,
                   help="matured-verdict window size for the live drift "
                        "monitor (0 disables it)")
    p.add_argument("--drift-threshold", type=float, default=None,
                   help="fire the drift alarm when a window's matured "
                        "accuracy drops below this (default: never)")
    p.add_argument("--retrain-on-drift", action="store_true",
                   help="schedule an immediate retrain when the drift alarm "
                        "fires (requires a retrainer and --drift-threshold)")
    _add_log_args(p)

    p = sub.add_parser("loadgen", help="open-loop replay against a serve node")
    _add_trace_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--rate", type=float, default=2000.0,
                   help="offered load, requests/second")
    p.add_argument("--connections", type=int, default=4)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--limit", type=int, default=None,
                   help="replay only the first LIMIT positions from --start")
    p.add_argument("--no-uvloop", action="store_true",
                   help="stay on the stdlib asyncio loop even when uvloop "
                        "is installed")
    p.add_argument("--chrome-trace", default=None,
                   help="record client-side send/recv spans and write them "
                        "as Chrome trace-event JSON to this path")
    _add_log_args(p)

    p = sub.add_parser(
        "scenario",
        help="replay a fault-injection scenario against the two-tier cluster",
    )
    _add_trace_args(p)
    p.add_argument("--spec", default=None,
                   help="JSON scenario file (default: the built-in reference "
                        "scenario — 4 nodes, replication 2, kill/restart + "
                        "hot-key flood + rolling deploy)")
    p.add_argument("--requests", type=int, default=None,
                   help="base requests for the reference scenario (default: "
                        "the whole trace; ignored with --spec)")
    p.add_argument("--json", default=None,
                   help="also write the full report as JSON to this path")
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the failure-free baseline replay (and its "
                        "exact-equality check on pristine phases)")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the single-node oracle comparator")
    p.add_argument("--chrome-trace", default=None,
                   help="record per-phase replay spans and write them as "
                        "Chrome trace-event JSON (loads in Perfetto)")

    p = sub.add_parser(
        "staging",
        help="classifier vs flashiness vs composed, judged at the device "
             "(writes, WA, CMT pressure, lifetime)",
    )
    _add_trace_args(p)
    p.add_argument("--fractions", nargs="+", type=float, default=None,
                   help="capacity axis as footprint fractions (default: "
                        "0.02 0.05 0.10)")
    p.add_argument("--dram-fraction", type=float, default=0.05,
                   help="staging/DRAM tier as a fraction of SSD capacity")
    p.add_argument("--flashiness-threshold", type=int, default=1,
                   help="DRAM re-accesses required before a staged object "
                        "earns its SSD write")
    p.add_argument("--redemption-delta", type=int, default=1,
                   help="extra re-accesses (beyond the bar) that let the "
                        "composed scheme override a classifier denial")
    p.add_argument("--cmt-fraction", type=float, default=0.25,
                   help="cached mapping table size as a fraction of the "
                        "device's user pages")
    p.add_argument("--json", default=None,
                   help="also write the full comparison as JSON to this path")
    p.add_argument("--no-check", action="store_true",
                   help="skip the composition write-ordering gate (report "
                        "only)")

    p = sub.add_parser(
        "trace-dump",
        help="drain a serving node's decision-trace buffer as JSON lines",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="the node's TCP protocol port (not the metrics port)")
    p.add_argument("--limit", type=int, default=None,
                   help="at most N most-recent events (default: all buffered)")
    p.add_argument("--clear", action="store_true",
                   help="clear the ring buffer after dumping")
    p.add_argument("--output", default=None,
                   help="write events to this file instead of stdout")

    p = sub.add_parser(
        "spans-dump",
        help="drain a serving node's span buffer as Chrome trace-event JSON",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="the node's TCP protocol port (not the metrics port)")
    p.add_argument("--limit", type=int, default=None,
                   help="at most N most-recent spans (default: all buffered)")
    p.add_argument("--output", default=None,
                   help="write the trace JSON to this file instead of stdout")

    return parser


def _cmd_stats(args) -> int:
    if args.watch:
        return _watch_stats(args)
    trace = _resolve_trace(args)
    print(compute_stats(trace).summary())
    if args.types:
        for name, share in sorted(
            type_request_histogram(trace).items(), key=lambda kv: -kv[1]
        ):
            print(f"  {name}: {100 * share:5.1f}%")
    return 0


def _watch_stats(args) -> int:
    """Live dashboard: poll /statsz and re-render the metrics table."""
    import json
    import time
    import urllib.error
    import urllib.request

    from repro.server.metrics import format_metrics

    url = f"http://{args.stats_host}:{args.stats_port}/statsz"
    polls = 0
    try:
        while args.iterations is None or polls < args.iterations:
            if polls:
                time.sleep(args.interval)
            polls += 1
            try:
                with urllib.request.urlopen(url, timeout=5.0) as resp:
                    snap = json.loads(resp.read().decode("utf-8"))
            except (urllib.error.URLError, OSError, ValueError) as exc:
                print(f"[{time.strftime('%H:%M:%S')}] {url}: {exc}")
                continue
            done = snap["processed"]
            total = snap["trace_requests"]
            pct = 100.0 * done / total if total else 0.0
            print(f"\n[{time.strftime('%H:%M:%S')}] {url}  "
                  f"replay {done:,}/{total:,} ({pct:.1f}%)")
            print(format_metrics(snap))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_generate(args) -> int:
    trace = _resolve_trace(args)
    save_trace(trace, args.output)
    print(f"saved {trace.n_accesses:,} accesses / {trace.n_objects:,} objects "
          f"to {args.output}")
    return 0


def _cmd_simulate(args) -> int:
    trace = _resolve_trace(args)
    cap = max(1, int(args.capacity_fraction * trace.footprint_bytes))
    result = simulate(
        trace, make_policy(args.policy, cap, trace), policy_name=args.policy
    )
    s = result.stats
    print(f"policy={args.policy} capacity={cap / 2**20:.1f} MiB")
    print(f"hit rate          {s.hit_rate:.4f}")
    print(f"byte hit rate     {s.byte_hit_rate:.4f}")
    print(f"file write rate   {s.file_write_rate:.4f}")
    print(f"byte write rate   {s.byte_write_rate:.4f}")
    print(f"requests={s.requests:,} hits={s.hits:,} writes={s.files_written:,}")
    return 0


def _cmd_experiment(args) -> int:
    trace = _resolve_trace(args)
    result = run_experiment(
        trace,
        policy=args.policy,
        capacity_fraction=args.capacity_fraction,
        cost_v=args.cost_v,
        include_belady=not args.no_belady,
    )
    print(result.summary())
    o = result.training.overall
    print(f"classifier: precision={o['precision']:.3f} recall={o['recall']:.3f} "
          f"accuracy={o['accuracy']:.3f}")
    return 0


def _cmd_sweep(args) -> int:
    trace = _resolve_trace(args)
    print(f"{'paper GB':>9s} {'capacity MiB':>13s} {'hit rate':>9s}")
    for frac in paper_capacity_fractions():
        sc = paper_equivalent_bytes(frac, trace.footprint_bytes)
        r = simulate(trace, make_policy(args.policy, sc.bytes, trace))
        print(f"{sc.paper_gb:9.0f} {sc.bytes / 2**20:13.1f} {r.hit_rate:9.4f}")
    return 0


def _cmd_grid(args) -> int:
    from repro.experiments import (
        POLICIES,
        GridRunner,
        check_policies,
        format_sweep_table,
        resolve_start_method,
    )

    # Fail fast: both are checked before the trace is generated.
    start_method = resolve_start_method(args.start_method)
    policies = check_policies(args.policies or POLICIES)
    trace = _resolve_trace(args)
    runner = GridRunner(trace, fractions=args.fractions, policies=policies)
    runner.precompute(max_workers=args.workers, start_method=start_method)
    print(
        format_sweep_table(
            f"{args.metric} across the capacity axis", runner, args.metric
        )
    )
    return 0


def _cmd_analyze(args) -> int:
    import numpy as np

    from repro.trace.analysis import (
        one_time_share_by_hour,
        popularity_zipf_fit,
        reuse_interval_stats,
        stack_distance_profile,
    )

    trace = _resolve_trace(args)
    fit = popularity_zipf_fit(trace, min_rank=5)
    print(f"Zipf: alpha={fit.exponent:.2f} R2={fit.r_squared:.3f} "
          f"zipf-like={fit.is_zipf_like} top1%={100 * fit.top_1pct_share:.1f}%")
    ri = reuse_interval_stats(trace)
    print(f"reuse: median={ri.median_seconds / 3600:.2f}h "
          f"p90={ri.p90_seconds / 3600:.2f}h "
          f"within-day={100 * ri.within_day_fraction:.0f}%")
    caps = np.unique(
        np.logspace(1, np.log10(trace.n_objects), 6).astype(int)
    )
    profile = stack_distance_profile(trace, caps)
    print("LRU stack profile (objects: hit rate): "
          + "  ".join(f"{c}: {h:.3f}" for c, h in zip(caps, profile)))
    share = one_time_share_by_hour(trace)
    print(f"one-time share: max at {int(np.argmax(share))}:00 "
          f"({share.max():.3f}), min at {int(np.argmin(share))}:00 "
          f"({share.min():.3f})")
    return 0


def _cmd_report(args) -> int:
    from repro.reporting import write_report

    trace = _resolve_trace(args)
    results = [
        run_experiment(
            trace, policy=policy, capacity_fraction=args.capacity_fraction
        )
        for policy in args.policies
    ]
    path = write_report(args.output, trace, results)
    print(f"report written to {path}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.obs import DecisionTrace, DriftMonitor, Tracer, configure_logging
    from repro.server.loop import install_uvloop, loop_label
    from repro.server.metrics import format_metrics, metrics_snapshot
    from repro.server.node import CacheNode, NodeConfig, run_server
    from repro.server.retrainer import Retrainer, RetrainerConfig

    configure_logging(args.log_level, json_format=args.log_json)
    uv = install_uvloop(enable=not args.no_uvloop)
    print(f"event loop: {loop_label(uv)}")
    trace = _resolve_trace(args)
    tracer = None
    if args.trace_sample > 0:
        tracer = DecisionTrace(
            capacity=args.trace_capacity, sample_rate=args.trace_sample
        )
    spans = Tracer(capacity=args.spans_capacity) if args.spans else None
    node = CacheNode(
        trace,
        NodeConfig(
            policy=args.policy,
            capacity_fraction=args.capacity_fraction,
            dram_fraction=args.dram_fraction,
            classifier=not args.no_classifier,
            cost_v=args.cost_v,
            seed=args.seed,
            max_batch=args.max_batch,
        ),
        tracer=tracer,
        spans=spans,
    )
    if node.criteria is not None and args.drift_window > 0:
        node.drift = DriftMonitor(
            node.criteria.m_threshold,
            window_size=args.drift_window,
            alarm_threshold=args.drift_threshold,
            registry=node.registry,
        )
    retrainer = None
    if args.retrain_period > 0 and node.model is not None:
        retrainer = Retrainer(
            node,
            RetrainerConfig(
                period=args.retrain_period, retrain_hour=args.retrain_hour
            ),
        )

    async def _main() -> None:
        server = await run_server(
            node,
            args.host,
            args.port,
            queue_depth=args.queue_depth,
            retrainer=retrainer,
            metrics_host=args.metrics_host,
            metrics_port=args.metrics_port,
            retrain_on_drift=args.retrain_on_drift,
        )
        print(format_metrics(metrics_snapshot(node, server)))

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # windows-style ^C without signal handlers
        pass
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from repro.obs import Tracer, configure_logging
    from repro.server.loadgen import LoadgenConfig, run_loadgen
    from repro.server.loop import install_uvloop, loop_label
    from repro.server.metrics import format_metrics

    configure_logging(args.log_level, json_format=args.log_json)
    uv = install_uvloop(enable=not args.no_uvloop)
    print(f"event loop: {loop_label(uv)}")
    trace = _resolve_trace(args)
    tracer = Tracer() if args.chrome_trace else None
    result = asyncio.run(
        run_loadgen(
            trace,
            LoadgenConfig(
                host=args.host,
                port=args.port,
                rate=args.rate,
                connections=args.connections,
                start=args.start,
                limit=args.limit,
            ),
            tracer=tracer,
        )
    )
    if tracer is not None:
        _write_chrome_trace(tracer, args.chrome_trace, "repro-loadgen")
    print(result.summary())
    if result.server_stats is not None:
        print("\nserver STATS snapshot:")
        print(format_metrics(result.server_stats))
    return 0 if result.errors == 0 else 1


def _write_chrome_trace(tracer, path: str, process_name: str) -> None:
    """Validate and write a tracer's buffer as Chrome trace-event JSON."""
    import json

    from repro.obs import validate_chrome_trace

    doc = tracer.to_chrome(process_name=process_name)
    n_spans = validate_chrome_trace(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"[{n_spans} span(s) written to {path} — open in ui.perfetto.dev]")


def _cmd_scenario(args) -> int:
    import json

    from repro.obs import Tracer
    from repro.scenario import (
        format_report,
        load_spec,
        reference_scenario,
        run_scenario,
    )

    trace = _resolve_trace(args)
    if args.spec:
        spec = load_spec(args.spec)
    else:
        requests = args.requests if args.requests else trace.n_accesses
        spec = reference_scenario(requests, seed=args.seed)
    tracer = Tracer() if args.chrome_trace else None
    report = run_scenario(
        spec,
        trace,
        with_baseline=not args.no_baseline,
        with_oracle=not args.no_oracle,
        tracer=tracer,
    )
    print(format_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"[report written to {args.json}]")
    if tracer is not None:
        _write_chrome_trace(tracer, args.chrome_trace, "repro-scenario")
    if report.baseline_checked and not report.baseline_equal:
        print(
            "FAILED: pristine phases diverged from the failure-free baseline",
            file=sys.stderr,
        )
        return 1
    if report.ledger is not None and not report.ledger["exact"]:
        print(
            "FAILED: write ledger does not sum to the cluster's SSD writes",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_staging(args) -> int:
    import json

    from repro.experiments.staging import (
        DEFAULT_FRACTIONS,
        check_write_ordering,
        format_staging_table,
        run_staging_comparison,
    )

    trace = _resolve_trace(args)
    comparison = run_staging_comparison(
        trace,
        fractions=tuple(args.fractions) if args.fractions else DEFAULT_FRACTIONS,
        dram_fraction=args.dram_fraction,
        flashiness_threshold=args.flashiness_threshold,
        redemption_delta=args.redemption_delta,
        training_rng=args.seed,
        cmt_fraction=args.cmt_fraction,
    )
    print(format_staging_table(comparison))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(comparison.to_dict(), fh, indent=2)
        print(f"[comparison written to {args.json}]")
    if not args.no_check:
        problems = check_write_ordering(comparison)
        if problems:
            for problem in problems:
                print(f"FAILED: {problem}", file=sys.stderr)
            return 1
    return 0


def _cmd_trace_dump(args) -> int:
    import asyncio

    from repro.obs.structlog import json_line
    from repro.server.loadgen import ask

    request = {"op": "TRACE", "clear": bool(args.clear)}
    if args.limit is not None:
        request["limit"] = args.limit
    try:
        msg = asyncio.run(ask(args.host, args.port, request))
    except (ConnectionError, OSError) as exc:
        print(f"trace-dump failed: {exc}", file=sys.stderr)
        return 1
    events = msg["events"]
    lines = "\n".join(json_line(event) for event in events)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            if lines:
                fh.write(lines + "\n")
    elif lines:
        print(lines)
    print(
        f"{len(events)} event(s) dumped "
        f"(seen {msg['seen']:,}, sampled {msg['sampled']:,}, "
        f"dropped {msg['dropped']:,}, rate {msg['sample_rate']})",
        file=sys.stderr,
    )
    return 0


def _cmd_spans_dump(args) -> int:
    import asyncio
    import json

    from repro.obs import chrome_trace, validate_chrome_trace
    from repro.server.loadgen import ask

    request = {"op": "SPANS"}
    if args.limit is not None:
        request["limit"] = args.limit
    try:
        msg = asyncio.run(ask(args.host, args.port, request))
    except (ConnectionError, OSError) as exc:
        print(f"spans-dump failed: {exc}", file=sys.stderr)
        return 1
    doc = chrome_trace(msg["spans"], process_name="repro-serve")
    n_spans = validate_chrome_trace(doc)
    text = json.dumps(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(
        f"{n_spans} span(s) dumped "
        f"(recorded {msg['recorded']:,}, dropped {msg['dropped']:,}, "
        f"capacity {msg['capacity']:,}) — open in ui.perfetto.dev",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "grid": _cmd_grid,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "scenario": _cmd_scenario,
    "staging": _cmd_staging,
    "trace-dump": _cmd_trace_dump,
    "spans-dump": _cmd_spans_dump,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        # Bad input gets argparse's one-line shape and exit code, not a
        # traceback.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
