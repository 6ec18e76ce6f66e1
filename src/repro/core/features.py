"""Feature extraction for the caching classifier (§3.2).

The nine candidate features of §3.2.1, computed for every access in one
vectorised pass.  All values are information *available at request time* —
nothing peeks at future accesses, which is what makes the prediction
"non-history-oriented" in the paper's sense (the object itself may have no
history at all).

Discretisation follows §3.2.3: photo types map to 0–11, terminals to 0/1,
age and recency to 10-minute buckets, access time to the hour of day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.preprocessing import UniformDiscretizer
from repro.trace.records import Trace

__all__ = [
    "FEATURE_NAMES",
    "PAPER_FEATURE_NAMES",
    "FeatureMatrix",
    "extract_features",
]

#: All candidate features, column order of the extracted matrix.
FEATURE_NAMES = (
    "owner_avg_views",     # owner's historical mean views per photo
    "owner_active_friends",
    "photo_type",          # 0..11 (§3.2.3 discretisation)
    "photo_size",          # bytes
    "photo_age",           # 10-minute buckets since upload
    "recency",             # 10-minute buckets since previous access/upload
    "access_hour",         # 0..23
    "terminal",            # 0 = PC, 1 = mobile
    "recent_requests",     # system requests in the trailing minute
)

#: The subset §3.2.2's greedy information-gain selection settles on.
PAPER_FEATURE_NAMES = (
    "owner_avg_views",
    "recency",
    "photo_age",
    "access_hour",
    "photo_type",
)

_TEN_MINUTES = 600.0
#: Ages/recencies cap at 90 days of 10-minute buckets; the tail bucket
#: absorbs anything older (a bounded feature table, as production would use).
_MAX_TIME_BUCKETS = 90 * 144


@dataclass
class FeatureMatrix:
    """Extracted features plus column metadata."""

    X: np.ndarray                 # (n_accesses, n_features) float64
    names: tuple[str, ...]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.X[:, self.names.index(name)]
        except ValueError:
            raise KeyError(f"unknown feature {name!r}") from None

    def select(self, names) -> "FeatureMatrix":
        """Project onto a subset of features (e.g. ``PAPER_FEATURE_NAMES``)."""
        idx = [self.names.index(n) for n in names]
        # ``take`` copies row-major, the layout every fit and predict reads.
        return FeatureMatrix(X=self.X.take(idx, axis=1), names=tuple(names))


def _previous_access_times(trace: Trace) -> np.ndarray:
    """Timestamp of each access's previous access to the same object.

    ``NaN`` where the access is the object's first in the trace.  Vectorised
    via a stable sort grouping accesses per object in time order.
    """
    oid = trace.object_ids
    ts = trace.timestamps
    n = oid.shape[0]
    order = np.argsort(oid, kind="stable")  # groups objects, time-ordered
    prev = np.full(n, np.nan)
    same = oid[order][1:] == oid[order][:-1]
    prev_positions = order[:-1][same]
    this_positions = order[1:][same]
    prev[this_positions] = ts[prev_positions]
    return prev


def _recent_request_counts(ts: np.ndarray, window: float = 60.0) -> np.ndarray:
    """Requests in the trailing ``window`` seconds, excluding the current one."""
    starts = np.searchsorted(ts, ts - window, side="left")
    return np.arange(ts.shape[0]) - starts


def extract_features(trace: Trace) -> FeatureMatrix:
    """Build the full §3.2 feature matrix for every access of ``trace``."""
    acc = trace.accesses
    oid = acc["object_id"]
    ts = acc["timestamp"]
    cat = trace.catalog[oid]

    owner = cat["owner_id"]
    upload = cat["upload_time"]

    bucket = UniformDiscretizer(_TEN_MINUTES, max_bins=_MAX_TIME_BUCKETS)

    age = bucket(ts - upload)

    prev_ts = _previous_access_times(trace)
    recency_seconds = np.where(np.isnan(prev_ts), ts - upload, ts - prev_ts)
    recency = bucket(recency_seconds)

    X = np.column_stack(
        [
            trace.owner_avg_views[owner],
            trace.owner_active_friends[owner].astype(np.float64),
            cat["photo_type"].astype(np.float64),
            cat["size"].astype(np.float64),
            age.astype(np.float64),
            recency.astype(np.float64),
            np.floor((ts % 86400.0) / 3600.0),
            acc["terminal"].astype(np.float64),
            _recent_request_counts(ts).astype(np.float64),
        ]
    )
    return FeatureMatrix(X=np.ascontiguousarray(X), names=FEATURE_NAMES)
