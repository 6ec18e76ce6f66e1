"""Synthetic Tencent QQPhoto workload (substitute for the proprietary trace).

The paper's evaluation trace — 9 days of QQ photo-album accesses — is not
public.  This package synthesises a workload that reproduces every statistic
the paper publishes about it (see DESIGN.md §2 and §6):

* ~61.5 % of objects accessed exactly once (§2.2),
* mean ≈ 3.95 accesses/object, i.e. an all-fits hit-rate cap of ≈ 74.5 %,
* twelve photo types with the Fig.-3 request skew (``l5`` ≈ 45 %),
* diurnal load peaking at 20:00 with a 05:00 trough (§4.4.3),
* photo-age popularity decay and owner-popularity correlation (§3.2.1),

and — crucially for the ML experiments — generates the *labels* (future
re-access) from the same latent variables that the *features* observe, so a
classifier can reach the paper's ≈80 % precision without information leaks.
"""

from repro.trace.records import Trace, ACCESS_DTYPE, CATALOG_DTYPE
from repro.trace.owners import OwnerModel, generate_owners
from repro.trace.catalog import (
    PHOTO_TYPES,
    PHOTO_TYPE_REQUEST_SHARE,
    generate_catalog,
)
from repro.trace.popularity import DiurnalModel
from repro.trace.generator import WorkloadConfig, generate_trace
from repro.trace.sampler import sample_objects
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.mixer import interleave_traces, scale_rate
from repro.trace.analysis import (
    ZipfFit,
    one_time_share_by_hour,
    popularity_zipf_fit,
    reuse_interval_stats,
    stack_distance_profile,
)

__all__ = [
    "Trace",
    "ACCESS_DTYPE",
    "CATALOG_DTYPE",
    "OwnerModel",
    "generate_owners",
    "PHOTO_TYPES",
    "PHOTO_TYPE_REQUEST_SHARE",
    "generate_catalog",
    "DiurnalModel",
    "WorkloadConfig",
    "generate_trace",
    "sample_objects",
    "TraceStats",
    "compute_stats",
    "interleave_traces",
    "scale_rate",
    "ZipfFit",
    "one_time_share_by_hour",
    "popularity_zipf_fit",
    "reuse_interval_stats",
    "stack_distance_profile",
]
