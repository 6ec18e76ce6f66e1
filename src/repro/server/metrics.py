"""STATS snapshots for the serving node.

:func:`metrics_snapshot` collapses the node's counters — cache statistics,
admission verdicts, per-decision ``t_classify`` timing, service latency,
drift-monitor state and the full metrics-registry contents — into one
JSON-able dict.  It is the *single* source for both observation surfaces:
the TCP ``STATS`` verb and the HTTP ``/statsz`` endpoint call this same
function, so the two can never disagree.
:func:`format_metrics` renders it as an aligned table through
:func:`repro.reporting.format_table`, so served numbers read exactly like
the offline reports.

Timing data is summarised as ``{count, mean, p50, p95, p99, max}`` in
seconds via :func:`timing_stats`, which accepts either a raw array or a
bounded :class:`~repro.obs.registry.Reservoir` (count/mean/max exact,
percentiles from the retained sample).
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.registry import Reservoir
from repro.reporting import format_table

__all__ = [
    "timing_stats",
    "metrics_snapshot",
    "format_metrics",
]

_EMPTY = {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}


def timing_stats(seconds) -> dict:
    """Count/mean/percentiles (seconds) of a timing array or reservoir."""
    if isinstance(seconds, Reservoir):
        return seconds.summary()
    arr = np.asarray(seconds, dtype=np.float64)
    if arr.size == 0:
        return dict(_EMPTY)
    p50, p95, p99 = np.percentile(arr, [50, 95, 99])
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "max": float(arr.max()),
    }


def metrics_snapshot(node, server=None) -> dict:
    """One coherent view of a node's counters (plus serving-layer state).

    Safe to call from the event loop at any time: every value is read from
    single-writer state between micro-batches.
    """
    stats = node.stats
    snap = {
        "processed": node.processed,
        "trace_requests": node.trace.n_accesses,
        "trace_clock": node.trace_clock,
        "requests": stats.requests,
        "hits": stats.hits,
        "hit_rate": stats.hit_rate,
        "byte_hit_rate": stats.byte_hit_rate,
        "files_written": stats.files_written,
        "bytes_written": stats.bytes_written,
        "file_write_rate": stats.file_write_rate,
        "byte_write_rate": stats.byte_write_rate,
        "evictions": stats.evictions,
        "admissions_denied": stats.admissions_denied,
        "rectified_admits": node.rectified_admits,
        "classifier": node.model is not None,
        "model_version": node.model_version,
        "t_classify": timing_stats(node.classify_timing),
    }
    cache = node.cache
    if hasattr(cache, "l1_hits"):
        snap["l1_hits"] = cache.l1_hits
        snap["l2_hits"] = cache.l2_hits
    if node.drift is not None:
        snap["drift"] = node.drift.snapshot()
    if node.tracer is not None:
        tracer = node.tracer
        snap["trace"] = {
            "sample_rate": tracer.sample_rate,
            "capacity": tracer.capacity,
            "seen": tracer.seen,
            "sampled": tracer.sampled,
            "buffered": len(tracer),
            "dropped": tracer.dropped,
        }
    if node.spans is not None:
        spans = node.spans
        snap["spans"] = {
            "enabled": spans.enabled,
            "capacity": spans.capacity,
            "recorded": spans.recorded,
            "buffered": len(spans),
            "dropped": spans.dropped,
        }
    snap["ledger"] = node.ledger.snapshot()
    if server is not None:
        snap["uptime_seconds"] = (
            time.perf_counter() - server.started_at if server.started_at else 0.0
        )
        snap["queue_depth"] = server.queue_depth
        snap["service_latency"] = timing_stats(server.service_latencies)
        if server.retrainer is not None:
            snap["retrains"] = server.retrainer.retrains
            if server.retrainer.history:
                last = server.retrainer.history[-1]
                snap["worst_window_accuracy"] = last["worst_window_accuracy"]
    # The registry's families last: identical numbers on the TCP STATS verb
    # and the HTTP /statsz endpoint, bucket-for-bucket.
    snap["metrics"] = node.registry.snapshot()
    return snap


def _fmt_seconds(s: float) -> str:
    if s >= 1e-3:
        return f"{1e3 * s:.3f} ms"
    return f"{1e6 * s:.2f} µs"


def format_metrics(snap: dict) -> str:
    """Render a snapshot as the aligned table printed on shutdown/STATS."""
    rows = [
        ["requests served", f"{snap['requests']:,}"],
        ["file hit rate", f"{snap['hit_rate']:.4f}"],
        ["byte hit rate", f"{snap['byte_hit_rate']:.4f}"],
        ["files written (SSD)", f"{snap['files_written']:,}"],
        ["bytes written (SSD)", f"{snap['bytes_written']:,}"],
        ["file write rate", f"{snap['file_write_rate']:.4f}"],
        ["byte write rate", f"{snap['byte_write_rate']:.4f}"],
        ["admissions denied", f"{snap['admissions_denied']:,}"],
        ["rectified admits", f"{snap['rectified_admits']:,}"],
        ["classifier", "on" if snap["classifier"] else "off"],
        ["model version", str(snap["model_version"])],
    ]
    if "l1_hits" in snap:
        rows.append(["DRAM (L1) hits", f"{snap['l1_hits']:,}"])
        rows.append(["SSD (L2) hits", f"{snap['l2_hits']:,}"])
    t = snap["t_classify"]
    if t["count"]:
        rows.append(
            [
                "t_classify (mean/p99)",
                f"{_fmt_seconds(t['mean'])} / {_fmt_seconds(t['p99'])}",
            ]
        )
    lat = snap.get("service_latency")
    if lat and lat["count"]:
        rows.append(
            [
                "service latency (p50/p95/p99)",
                f"{_fmt_seconds(lat['p50'])} / {_fmt_seconds(lat['p95'])} / "
                f"{_fmt_seconds(lat['p99'])}",
            ]
        )
    drift = snap.get("drift")
    if drift:
        if drift["last_accuracy"] is not None:
            rows.append(
                [
                    "drift accuracy (last/worst)",
                    f"{drift['last_accuracy']:.4f} / {drift['worst_accuracy']:.4f}",
                ]
            )
        rows.append(["drift alarms", str(drift["alarms"])])
    tr = snap.get("trace")
    if tr:
        rows.append(
            [
                "trace events (buffered/sampled)",
                f"{tr['buffered']:,} / {tr['sampled']:,}",
            ]
        )
    sp = snap.get("spans")
    if sp:
        rows.append(
            [
                "spans (buffered/recorded)",
                f"{sp['buffered']:,} / {sp['recorded']:,}",
            ]
        )
    led = snap.get("ledger")
    if led and led["total_writes"]:
        rows.append(
            [
                "writes avoided (ledger)",
                f"{led['avoided_writes']:,} "
                f"({led['avoided_bytes']:,} bytes)",
            ]
        )
    if "retrains" in snap:
        rows.append(["retrains", str(snap["retrains"])])
    if "uptime_seconds" in snap:
        rows.append(["uptime", f"{snap['uptime_seconds']:.2f} s"])
    return format_table(["quantity", "value"], rows)
