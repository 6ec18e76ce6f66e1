"""Single-node oracle comparator: how much did the faults actually cost?

A scenario's hit and write rates conflate two things: the workload (hard
phases are hard everywhere) and the cluster's condition (a cold restarted
node loses hits the workload alone would not).  To separate them the
comparator replays the *same merged trace* through one idealised cache of
the cluster's **aggregate** OC capacity — no sharding, no failures, same
replacement policy, same initial admission configuration — and reports
per-phase hit and write rates on the same phase boundaries.

The per-phase **gap** (cluster − oracle) is then the cost of distribution
plus faults: near zero in healthy steady state (sharding splits a
uniform workload almost losslessly), dipping when a fault is active.  A
commit that widens it regressed failover behaviour, not the workload.

The replay *is* :func:`repro.cache.simulator.replay_range` — the loop
behind :func:`~repro.cache.simulator.simulate` — called once per phase
with a fresh :class:`~repro.cache.base.CacheStats`, so oracle rates are
directly comparable with every single-node figure in the repo (hit-path
inserts, i.e. staging promotions, included).
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import AdmissionPolicy, CacheStats
from repro.cache.simulator import make_policy, replay_range
from repro.core.admission import NoisyOracleAdmission, OracleAdmission
from repro.scenario.spec import ScenarioSpec
from repro.trace.records import Trace

__all__ = ["build_admission", "node_capacity_bytes", "run_oracle"]


def build_admission(
    kind: str | None,
    labels: np.ndarray,
    spec: ScenarioSpec,
    seed: int,
) -> AdmissionPolicy | None:
    """Instantiate one admission filter for a scenario replay.

    All instances built with the same ``seed`` issue identical verdicts
    (the noisy oracle draws its label flips once, from that seed), which
    is what keeps the scenario, its failure-free baseline, and this
    comparator bit-comparable.
    """
    if kind is None or kind == "none":
        return None
    if kind == "oracle":
        return OracleAdmission(labels)
    if kind == "noisy":
        return NoisyOracleAdmission(
            labels,
            fn_rate=spec.noisy_fn_rate,
            fp_rate=spec.noisy_fp_rate,
            rng=seed,
        )
    raise ValueError(f"unknown admission kind {kind!r}")


def node_capacity_bytes(spec: ScenarioSpec, trace: Trace) -> int:
    """Per-OC-node cache capacity for a given (merged) trace."""
    return max(1, int(spec.oc_capacity_fraction * trace.footprint_bytes))


def run_oracle(
    spec: ScenarioSpec,
    merged: Trace,
    labels: np.ndarray,
    boundaries: list[int],
    admission_seed: int,
) -> list[dict]:
    """Replay ``merged`` through one aggregate-capacity cache.

    Returns one ``{"requests", "hits", "writes"}`` dict per phase (the
    slices between consecutive ``boundaries``).
    """
    capacity = spec.nodes * node_capacity_bytes(spec, merged)
    policy = make_policy(spec.policy, capacity)
    admission = build_admission(spec.admission, labels, spec, admission_seed)

    oids = merged.object_ids
    sizes = merged.catalog["size"][oids]
    phases: list[dict] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        stats = CacheStats()  # fresh per phase: the counters *are* the phase
        replay_range(policy, admission, None, stats, oids, sizes, lo, hi)
        phases.append(
            {
                "requests": stats.requests,
                "hits": stats.hits,
                "writes": stats.files_written,
            }
        )
    return phases
