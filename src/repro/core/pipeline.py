"""End-to-end experiment driver: the Figs. 6–10 comparison.

:func:`capacity_block` is the one computation of a Figs. 6–10 point.  For
one capacity and every policy of the block it:

1. simulates the **Original** configuration (plain replacement policy);
2. solves the one-time-access **criterion** ``M`` with LRU's measured hit
   rate when LRU is in the block, else the first policy's (clamped to
   0.999); LIRS gets ``M·R_s``;
3. labels every access and runs the **daily training loop** (§3.2, §4.4),
   once for the LRU family and once for LIRS, each only when one of its
   policies is in the block;
4. simulates **Proposal** (classifier + history table) and **Ideal**
   (oracle labels) per policy, and **Belady** (offline optimal) once.

:meth:`CapacityBlock.point` reads one policy's :class:`ExperimentResult`
out of a block, with the Eq. 3–6 latencies; :func:`run_experiment` is one
block of one policy, and :class:`repro.experiments.GridRunner` one block
per capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.lirs import LIRSCache
from repro.cache.simulator import SimulationResult, make_policy, simulate
from repro.config import COST_BOUNDARY_FRACTION
from repro.core.admission import AlwaysAdmit, ClassifierAdmission, OracleAdmission
from repro.core.criteria import Criteria, solve_criteria
from repro.core.features import FeatureMatrix, extract_features
from repro.core.labeling import labels_from_distances, reaccess_distances
from repro.core.latency import LatencyModel
from repro.core.training import DailyTrainingResult, train_daily_classifier
from repro.ml.cost_sensitive import select_cost_v
from repro.trace.generator import WorkloadConfig, generate_trace
from repro.trace.records import Trace

__all__ = ["CapacityBlock", "ExperimentResult", "capacity_block", "run_experiment"]

_LATENCY = LatencyModel()


@dataclass
class ExperimentResult:
    """All four configurations of one (policy, capacity) grid point."""

    policy: str
    capacity_bytes: int
    capacity_fraction: float
    criteria: Criteria
    original: SimulationResult
    proposal: SimulationResult
    ideal: SimulationResult
    training: DailyTrainingResult
    belady: SimulationResult | None = None
    latency_original: float = 0.0
    latency_proposal: float = 0.0
    cost_v: float = 2.0

    def rate(self, config: str, metric: str) -> float:
        """``metric`` of one configuration (``"original"`` … ``"belady"``)."""
        return getattr(getattr(self, config), metric)

    @property
    def hit_rate_gain(self) -> float:
        """Proposal − Original file hit rate (Fig. 6 deltas)."""
        return self.proposal.hit_rate - self.original.hit_rate

    @property
    def write_reduction(self) -> float:
        """Relative drop in SSD file writes (Fig. 8 deltas)."""
        orig = self.original.stats.files_written
        if orig == 0:
            return 0.0
        return 1.0 - self.proposal.stats.files_written / orig

    @property
    def byte_write_reduction(self) -> float:
        orig = self.original.stats.bytes_written
        if orig == 0:
            return 0.0
        return 1.0 - self.proposal.stats.bytes_written / orig

    @property
    def latency_improvement(self) -> float:
        if self.latency_original == 0:
            return 0.0
        return (self.latency_original - self.latency_proposal) / self.latency_original

    def summary(self) -> str:
        lines = [
            f"policy={self.policy}  capacity={self.capacity_bytes / 2**20:.1f} MiB "
            f"({100 * self.capacity_fraction:.2f}% of footprint)  "
            f"M={self.criteria.m_threshold:,.0f}  v={self.cost_v:g}",
            f"{'config':10s} {'hit':>7s} {'byte hit':>9s} {'fwrite':>8s} {'bwrite':>8s}",
        ]
        rows = [
            ("original", self.original),
            ("proposal", self.proposal),
            ("ideal", self.ideal),
        ]
        if self.belady is not None:
            rows.append(("belady", self.belady))
        for name, r in rows:
            lines.append(
                f"{name:10s} {r.hit_rate:7.3f} {r.byte_hit_rate:9.3f} "
                f"{r.file_write_rate:8.3f} {r.byte_write_rate:8.3f}"
            )
        lines.append(
            f"latency: {1e3 * self.latency_original:.3f} ms → "
            f"{1e3 * self.latency_proposal:.3f} ms "
            f"({100 * self.latency_improvement:+.1f}%)"
        )
        return "\n".join(lines)


@dataclass
class CapacityBlock:
    """Everything computed for one capacity, all policies of the block.

    A family (LRU-like or LIRS) with no policy in the block shares the
    other family's labels and training.
    """

    capacity_bytes: int
    cost_v: float
    criteria: Criteria              # LRU family
    lirs_criteria: Criteria         # M·R_s
    labels: np.ndarray              # one-time labels under ``criteria``
    lirs_labels: np.ndarray
    training: DailyTrainingResult
    lirs_training: DailyTrainingResult
    belady: SimulationResult | None
    originals: dict[str, SimulationResult]
    proposals: dict[str, SimulationResult]
    ideals: dict[str, SimulationResult]

    def point(self, policy: str, fraction: float) -> ExperimentResult:
        """``policy``'s configurations; ``fraction`` is the capacity's share
        of the trace footprint."""
        key = policy.lower()
        lirs = key == "lirs"
        original, proposal = self.originals[key], self.proposals[key]
        return ExperimentResult(
            policy=policy,
            capacity_bytes=self.capacity_bytes,
            capacity_fraction=fraction,
            criteria=self.lirs_criteria if lirs else self.criteria,
            original=original,
            proposal=proposal,
            ideal=self.ideals[key],
            training=self.lirs_training if lirs else self.training,
            belady=self.belady,
            latency_original=_LATENCY.average_latency(
                original.hit_rate, classified=False
            ),
            latency_proposal=_LATENCY.average_latency(
                proposal.hit_rate, classified=True
            ),
            cost_v=self.cost_v,
        )


def capacity_block(
    trace: Trace,
    policies,
    cap: int,
    *,
    distances: np.ndarray,
    features: FeatureMatrix,
    rng: int | None = 0,
    cost_v: float | None = None,
    belady: bool = True,
) -> CapacityBlock:
    """Compute one capacity's block (module docstring, steps 1–4).

    ``policies`` are lower-case ``make_policy`` names; ``distances`` and
    ``features`` are the trace's :func:`reaccess_distances` and
    :func:`extract_features`.  ``rng`` seeds every daily training run;
    ``cost_v`` defaults to the paper's capacity-dependent rule (§4.4.1).
    """
    policies = tuple(policies)
    if cost_v is None:
        cost_v = select_cost_v(
            cap, boundary_bytes=COST_BOUNDARY_FRACTION * trace.footprint_bytes
        )
    originals = {
        p: simulate(
            trace, make_policy(p, cap, trace), admission=AlwaysAdmit(),
            policy_name=p,
        )
        for p in policies
    }
    h = originals["lru" if "lru" in originals else policies[0]].hit_rate
    criteria = solve_criteria(
        distances, cap, trace.mean_object_size(), hit_rate=min(h, 0.999)
    )
    lirs_criteria = criteria.for_lirs(LIRSCache(cap).rs)

    def build(crit):
        labels = labels_from_distances(distances, crit.m_threshold)
        return labels, train_daily_classifier(
            trace, features, labels, cost_v=cost_v, rng=rng
        )

    lru_family = build(criteria) if set(policies) - {"lirs"} else None
    lirs_family = build(lirs_criteria) if "lirs" in policies else lru_family
    lru_family = lru_family or lirs_family

    proposals, ideals = {}, {}
    for p in policies:
        crit, (labels, training) = (
            (lirs_criteria, lirs_family) if p == "lirs" else (criteria, lru_family)
        )
        proposals[p] = simulate(
            trace,
            make_policy(p, cap, trace),
            admission=ClassifierAdmission.from_criteria(training.predictions, crit),
            policy_name=p,
        )
        ideals[p] = simulate(
            trace, make_policy(p, cap, trace), admission=OracleAdmission(labels),
            policy_name=p,
        )

    return CapacityBlock(
        capacity_bytes=cap,
        cost_v=cost_v,
        criteria=criteria,
        lirs_criteria=lirs_criteria,
        labels=lru_family[0],
        lirs_labels=lirs_family[0],
        training=lru_family[1],
        lirs_training=lirs_family[1],
        belady=simulate(
            trace, make_policy("belady", cap, trace), policy_name="belady"
        ) if belady else None,
        originals=originals,
        proposals=proposals,
        ideals=ideals,
    )


def run_experiment(
    workload: WorkloadConfig | Trace,
    *,
    policy: str = "lru",
    capacity_fraction: float | None = None,
    capacity_bytes: int | None = None,
    cost_v: float | None = None,
    include_belady: bool = True,
    rng: int | None = 0,
) -> ExperimentResult:
    """Run the Original / Proposal / Ideal / Belady comparison of one policy.

    Exactly one of ``capacity_fraction`` (of the trace's unique-byte
    footprint) or ``capacity_bytes`` must be given.  ``cost_v`` defaults to
    the paper's capacity-dependent rule (§4.4.1).  This is one
    :func:`capacity_block` of one policy.
    """
    trace = workload if isinstance(workload, Trace) else generate_trace(workload)

    footprint = trace.footprint_bytes
    if (capacity_fraction is None) == (capacity_bytes is None):
        raise ValueError("give exactly one of capacity_fraction / capacity_bytes")
    if capacity_bytes is None:
        if not 0.0 < capacity_fraction:
            raise ValueError("capacity_fraction must be positive")
        capacity_bytes = max(1, int(capacity_fraction * footprint))
    else:
        capacity_fraction = capacity_bytes / footprint

    block = capacity_block(
        trace,
        (policy.lower(),),
        capacity_bytes,
        distances=reaccess_distances(trace.object_ids),
        features=extract_features(trace),
        rng=rng,
        cost_v=cost_v,
        belady=include_belady,
    )
    return block.point(policy, capacity_fraction)
