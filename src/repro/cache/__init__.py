"""Byte-accurate cache simulator substrate.

Implements every replacement policy the paper evaluates — LRU, FIFO, S3LRU,
ARC, LIRS — plus the offline-optimal Belady bound and the wider
scan-resistance lineage (2Q, GDSF, SIEVE) for comparison, all behind one
:class:`~repro.cache.base.CachePolicy` interface.  A trace-driven
:func:`~repro.cache.simulator.simulate` loop provides the pluggable
admission filter (the hook the paper's classification system plugs into)
and an observer stream for device models;
:class:`~repro.cache.hierarchy.HierarchicalCache` composes a DRAM front
with an SSD tier.

All policies are *size-aware*: capacities, hit ratios and write ratios are
tracked in both files and bytes, matching the paper's Figures 6–9.
"""

from repro.cache.base import AccessResult, AdmissionPolicy, CachePolicy, CacheStats
from repro.cache.lru import LRUCache
from repro.cache.fifo import FIFOCache
from repro.cache.slru import S3LRUCache
from repro.cache.arc import ARCCache
from repro.cache.twoq import TwoQCache
from repro.cache.gdsf import GDSFCache
from repro.cache.sieve import SieveCache
from repro.cache.lirs import LIRSCache
from repro.cache.belady import BeladyCache, compute_next_use
from repro.cache.hierarchy import HierarchicalCache
from repro.cache.learned import LearnedCache, OnlineReuseTrainer, eviction_metadata
from repro.cache.segments import SegmentPlan
from repro.cache.simulator import POLICY_REGISTRY, SimulationResult, make_policy, simulate
from repro.cache.staging import StagingCache

__all__ = [
    "AccessResult",
    "AdmissionPolicy",
    "CachePolicy",
    "CacheStats",
    "LRUCache",
    "FIFOCache",
    "S3LRUCache",
    "ARCCache",
    "TwoQCache",
    "GDSFCache",
    "SieveCache",
    "LIRSCache",
    "BeladyCache",
    "HierarchicalCache",
    "LearnedCache",
    "OnlineReuseTrainer",
    "compute_next_use",
    "eviction_metadata",
    "POLICY_REGISTRY",
    "SegmentPlan",
    "SimulationResult",
    "StagingCache",
    "make_policy",
    "simulate",
]
