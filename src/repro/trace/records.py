"""Trace schema: structured arrays for accesses and the photo catalog.

Structured NumPy arrays keep the whole trace in two contiguous buffers, so
feature extraction, labelling and statistics are single vectorised passes
(the HPC guideline: columnar data, no per-record Python objects).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ACCESS_DTYPE",
    "CATALOG_DTYPE",
    "TRACE_COLUMNS",
    "Trace",
]

#: Columns every trace carries, in :meth:`Trace.column_arrays` order.
TRACE_COLUMNS = (
    "accesses",
    "catalog",
    "owner_active_friends",
    "owner_avg_views",
)

def _rebuild_trace(accesses, catalog, active_friends, avg_views, duration, viral):
    return Trace(
        accesses=accesses,
        catalog=catalog,
        owner_active_friends=active_friends,
        owner_avg_views=avg_views,
        duration=duration,
        viral_mask=viral,
    )

#: One row per request, sorted by ``timestamp``.
ACCESS_DTYPE = np.dtype(
    [
        ("timestamp", np.float64),   # seconds since trace start
        ("object_id", np.int64),     # index into the catalog
        ("terminal", np.int8),       # 0 = PC, 1 = mobile (§3.2.3)
    ]
)

#: One row per distinct photo; ``object_id`` is the row index.
CATALOG_DTYPE = np.dtype(
    [
        ("size", np.int64),          # bytes
        ("photo_type", np.int8),     # 0..11 ≙ a0,a5,b0,b5,c0,c5,m0,m5,o0,o5,l0,l5
        ("owner_id", np.int64),
        ("upload_time", np.float64), # seconds; negative = uploaded pre-trace
    ]
)


@dataclass
class Trace:
    """A synthesised (or re-loaded) access trace.

    Attributes
    ----------
    accesses:
        ``ACCESS_DTYPE`` array sorted by timestamp.
    catalog:
        ``CATALOG_DTYPE`` array; row *i* describes object id *i*.
    owner_active_friends / owner_avg_views:
        Per-owner social features (§3.2.1), indexed by ``owner_id``.  These
        are the *observable* production statistics, i.e. noisy proxies of
        the ground-truth popularity that drives re-accesses.
    duration:
        Trace length in seconds.
    """

    accesses: np.ndarray
    catalog: np.ndarray
    owner_active_friends: np.ndarray
    owner_avg_views: np.ndarray
    duration: float
    #: Optional per-object flag marking flash-crowd (viral) photos, set by
    #: the generator's viral extension; None for ordinary traces.
    viral_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.accesses.dtype != ACCESS_DTYPE:
            raise TypeError("accesses must use ACCESS_DTYPE")
        if self.catalog.dtype != CATALOG_DTYPE:
            raise TypeError("catalog must use CATALOG_DTYPE")
        if self.accesses.shape[0] == 0:
            raise ValueError("trace has no accesses")
        ts = self.accesses["timestamp"]
        if (np.diff(ts) < 0).any():
            raise ValueError("accesses must be sorted by timestamp")
        oid = self.accesses["object_id"]
        if oid.min() < 0 or oid.max() >= self.catalog.shape[0]:
            raise ValueError("object_id out of catalog range")
        n_owner = self.owner_avg_views.shape[0]
        if self.owner_active_friends.shape[0] != n_owner:
            raise ValueError("owner feature arrays disagree on owner count")
        if self.catalog["owner_id"].max(initial=-1) >= n_owner:
            raise ValueError("owner_id out of range")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.viral_mask is not None and self.viral_mask.shape != (
            self.catalog.shape[0],
        ):
            raise ValueError("viral_mask must have one flag per catalog object")

    def __reduce__(self):
        # Explicit reconstruction keeps the payload to the five canonical
        # fields: the ad-hoc instance state (notably the memoised
        # ``SegmentPlan`` attached by ``SegmentPlan.for_trace``, whose
        # per-capacity batch lists dwarf the trace itself) must never ride
        # along to worker processes.
        return (
            _rebuild_trace,
            (
                self.accesses,
                self.catalog,
                self.owner_active_friends,
                self.owner_avg_views,
                self.duration,
                self.viral_mask,
            ),
        )

    # --------------------------------------------------- columnar round-trip

    def column_arrays(self) -> dict:
        """The trace's columnar arrays, keyed by canonical column name.

        The mapping contains :data:`TRACE_COLUMNS` always and
        ``"viral_mask"`` when present; together with ``duration`` it is the
        complete round-trip state — ``from_column_arrays`` rebuilds an
        equivalent trace from it.
        """
        columns = {
            "accesses": self.accesses,
            "catalog": self.catalog,
            "owner_active_friends": self.owner_active_friends,
            "owner_avg_views": self.owner_avg_views,
        }
        if self.viral_mask is not None:
            columns["viral_mask"] = self.viral_mask
        return columns

    @classmethod
    def from_column_arrays(cls, columns: dict, duration: float) -> "Trace":
        """Rebuild a trace from :meth:`column_arrays` output.

        Arrays are adopted as-is (no copies); validation runs as usual via
        ``__post_init__``.
        """
        missing = [c for c in TRACE_COLUMNS if c not in columns]
        if missing:
            raise ValueError(f"missing trace columns: {missing}")
        return cls(
            accesses=columns["accesses"],
            catalog=columns["catalog"],
            owner_active_friends=columns["owner_active_friends"],
            owner_avg_views=columns["owner_avg_views"],
            duration=duration,
            viral_mask=columns.get("viral_mask"),
        )

    # ------------------------------------------------------------- helpers

    @property
    def n_accesses(self) -> int:
        return int(self.accesses.shape[0])

    @property
    def n_objects(self) -> int:
        return int(self.catalog.shape[0])

    @property
    def object_ids(self) -> np.ndarray:
        return self.accesses["object_id"]

    @property
    def timestamps(self) -> np.ndarray:
        return self.accesses["timestamp"]

    @property
    def sizes(self) -> np.ndarray:
        """Per-access object size (bytes)."""
        return self.catalog["size"][self.accesses["object_id"]]

    @property
    def footprint_bytes(self) -> int:
        """Sum of sizes of objects that appear in the trace at least once."""
        seen = np.unique(self.accesses["object_id"])
        return int(self.catalog["size"][seen].sum())

    def mean_object_size(self) -> float:
        seen = np.unique(self.accesses["object_id"])
        return float(self.catalog["size"][seen].mean())

    def access_counts(self) -> np.ndarray:
        """Number of accesses per catalog object (0 for never-accessed)."""
        return np.bincount(
            self.accesses["object_id"], minlength=self.catalog.shape[0]
        )

    def slice_time(self, t0: float, t1: float) -> "Trace":
        """Sub-trace with accesses in ``[t0, t1)`` (catalog shared)."""
        if not t0 < t1:
            raise ValueError("need t0 < t1")
        ts = self.accesses["timestamp"]
        lo, hi = np.searchsorted(ts, [t0, t1])
        if lo == hi:
            raise ValueError(f"no accesses in [{t0}, {t1})")
        return Trace(
            accesses=self.accesses[lo:hi],
            catalog=self.catalog,
            owner_active_friends=self.owner_active_friends,
            owner_avg_views=self.owner_avg_views,
            duration=self.duration,
            viral_mask=self.viral_mask,
        )
