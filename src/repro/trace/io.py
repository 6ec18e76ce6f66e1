"""Trace persistence: compressed NPZ that keeps the structured arrays
intact and round-trips exactly."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.trace.records import ACCESS_DTYPE, CATALOG_DTYPE, Trace

__all__ = ["save_trace", "load_trace"]

_FORMAT_VERSION = 1


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace to ``path`` (``.npz``)."""
    extra = {}
    if trace.viral_mask is not None:
        extra["viral_mask"] = trace.viral_mask
    np.savez_compressed(
        Path(path),
        format_version=np.int64(_FORMAT_VERSION),
        accesses=trace.accesses,
        catalog=trace.catalog,
        owner_active_friends=trace.owner_active_friends,
        owner_avg_views=trace.owner_avg_views,
        duration=np.float64(trace.duration),
        **extra,
    )


def load_trace(path: str | Path) -> Trace:
    """Load a trace written by :func:`save_trace`."""
    with np.load(Path(path)) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        return Trace(
            accesses=np.ascontiguousarray(data["accesses"], dtype=ACCESS_DTYPE),
            catalog=np.ascontiguousarray(data["catalog"], dtype=CATALOG_DTYPE),
            owner_active_friends=data["owner_active_friends"],
            owner_avg_views=data["owner_avg_views"],
            duration=float(data["duration"]),
            viral_mask=data["viral_mask"] if "viral_mask" in data else None,
        )
