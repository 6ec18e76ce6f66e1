"""Trace composition: interleave and rate-scale workloads.

Downstream what-if studies need composite traces — e.g. two tenants
sharing one cache tier, or a workload doubling in rate.  These utilities operate purely on the
:class:`~repro.trace.records.Trace` schema, so composed traces run through
every simulator, labeller and classifier unchanged.

Object-id spaces are kept disjoint when merging: each input's catalog is
appended and its ids offset, so tenants never alias each other's photos.
"""

from __future__ import annotations

import numpy as np

from repro.trace.records import ACCESS_DTYPE, CATALOG_DTYPE, Trace

__all__ = ["interleave_traces", "scale_rate"]


def _merge_catalogs(a: Trace, b: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Append catalogs/owner tables; return offsets for ids."""
    catalog = np.concatenate([a.catalog, b.catalog]).view(CATALOG_DTYPE)
    owner_offset = a.owner_avg_views.shape[0]
    catalog["owner_id"][a.catalog.shape[0]:] += owner_offset
    views = np.concatenate([a.owner_avg_views, b.owner_avg_views])
    friends = np.concatenate([a.owner_active_friends, b.owner_active_friends])
    return catalog, views, friends, a.catalog.shape[0], owner_offset


def interleave_traces(a: Trace, b: Trace) -> Trace:
    """Merge two traces on their common timeline (multi-tenant mix).

    Both traces keep their own timestamps; accesses are merge-sorted.  The
    result's duration is the max of the inputs'.
    """
    catalog, views, friends, id_offset, _ = _merge_catalogs(a, b)

    b_acc = b.accesses.copy()
    b_acc["object_id"] += id_offset
    merged = np.concatenate([a.accesses, b_acc]).view(ACCESS_DTYPE)
    order = np.argsort(merged["timestamp"], kind="stable")

    viral = None
    if a.viral_mask is not None or b.viral_mask is not None:
        va = a.viral_mask if a.viral_mask is not None else np.zeros(a.n_objects, bool)
        vb = b.viral_mask if b.viral_mask is not None else np.zeros(b.n_objects, bool)
        viral = np.concatenate([va, vb])

    return Trace(
        accesses=np.ascontiguousarray(merged[order]),
        catalog=catalog,
        owner_active_friends=friends,
        owner_avg_views=views,
        duration=max(a.duration, b.duration),
        viral_mask=viral,
    )


def scale_rate(trace: Trace, factor: float) -> Trace:
    """Compress (or stretch) the timeline by ``factor``.

    ``factor = 2`` means the same requests arrive twice as fast (duration
    halves); object sizes and ordering are untouched.  Upload times scale
    with the timeline so ages stay proportionate.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    accesses = trace.accesses.copy()
    accesses["timestamp"] /= factor
    catalog = trace.catalog.copy()
    catalog["upload_time"] /= factor
    return Trace(
        accesses=accesses,
        catalog=catalog,
        owner_active_friends=trace.owner_active_friends,
        owner_avg_views=trace.owner_avg_views,
        duration=trace.duration / factor,
        viral_mask=trace.viral_mask,
    )
