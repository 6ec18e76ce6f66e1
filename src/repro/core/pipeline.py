"""End-to-end experiment driver: the Figs. 6–10 comparison in one call.

:func:`run_experiment` wires the whole system together for one (policy,
capacity) point:

1. synthesise (or accept) a trace;
2. simulate the **Original** configuration (plain replacement policy) —
   its measured hit rate feeds the criterion solve;
3. solve the one-time-access **criterion** ``M`` (LIRS gets ``M·R_s``);
4. label every access, extract features, run the **daily training loop**;
5. simulate **Proposal** (classifier + history table), **Ideal** (oracle
   labels) and **Belady** (offline optimal);
6. evaluate the Eq. 3–6 latency model on each configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.lirs import LIRSCache
from repro.cache.simulator import SimulationResult, make_policy, simulate
from repro.config import COST_BOUNDARY_FRACTION, LatencyConstants, DEFAULT_LATENCY
from repro.core.admission import AlwaysAdmit, ClassifierAdmission, OracleAdmission
from repro.core.criteria import Criteria, solve_criteria
from repro.core.features import PAPER_FEATURE_NAMES, extract_features
from repro.core.labeling import one_time_labels, reaccess_distances
from repro.core.latency import LatencyModel
from repro.core.training import DailyTrainingResult, train_daily_classifier
from repro.ml.cost_sensitive import select_cost_v
from repro.trace.generator import WorkloadConfig, generate_trace
from repro.trace.records import Trace

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass
class ExperimentResult:
    """All four configurations of one (policy, capacity) grid point."""

    policy: str
    capacity_bytes: int
    capacity_fraction: float
    criteria: Criteria
    original: SimulationResult
    proposal: SimulationResult
    ideal: SimulationResult | None = None
    belady: SimulationResult | None = None
    training: DailyTrainingResult | None = None
    latency_original: float = 0.0
    latency_proposal: float = 0.0
    cost_v: float = 2.0

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
        rows = [("original", self.original), ("proposal", self.proposal)]
        if self.ideal is not None:
            rows.append(("ideal", self.ideal))
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


def run_experiment(
    workload: WorkloadConfig | Trace,
    *,
    policy: str = "lru",
    capacity_fraction: float | None = None,
    capacity_bytes: int | None = None,
    cost_v: float | None = None,
    include_ideal: bool = True,
    include_belady: bool = True,
    feature_subset: tuple[str, ...] | None = PAPER_FEATURE_NAMES,
    latency_constants: LatencyConstants = DEFAULT_LATENCY,
    training_kwargs: dict | None = None,
    system_iterations: int = 1,
    rng: int | None = 0,
) -> ExperimentResult:
    """Run the full Original / Proposal / Ideal / Belady comparison.

    Exactly one of ``capacity_fraction`` (of the trace's unique-byte
    footprint) or ``capacity_bytes`` must be given.  ``cost_v`` defaults to
    the paper's capacity-dependent rule (§4.4.1).

    ``system_iterations`` extends the paper's §4.3 fixed point to the whole
    system: iteration 1 solves ``M`` with the *Original* run's hit rate (the
    paper's procedure); each further iteration re-solves ``M`` with the
    previous *Proposal*'s hit rate, re-labels, retrains and re-simulates —
    closing the loop between the criterion and the system it shapes.
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

    if cost_v is None:
        cost_v = select_cost_v(
            capacity_bytes,
            boundary_bytes=COST_BOUNDARY_FRACTION * footprint,
        )

    # ---- Original run: the baseline and the measured h for the criterion.
    original = simulate(
        trace,
        make_policy(policy, capacity_bytes, trace),
        admission=AlwaysAdmit(),
        policy_name=policy,
    )

    if system_iterations < 1:
        raise ValueError("system_iterations must be >= 1")

    distances = reaccess_distances(trace.object_ids)
    features = extract_features(trace)

    h_for_criteria = original.hit_rate
    criteria = labels = training = proposal = None
    for _ in range(system_iterations):
        criteria = solve_criteria(
            distances,
            capacity_bytes,
            trace.mean_object_size(),
            hit_rate=min(h_for_criteria, 0.999),
        )
        if policy.lower() == "lirs":
            criteria = criteria.for_lirs(LIRSCache(capacity_bytes).rs)

        labels = one_time_labels(trace.object_ids, criteria.m_threshold)

        # ---- Classifier: features + daily training (§3.2, §4.4).
        training = train_daily_classifier(
            trace,
            features,
            labels,
            cost_v=cost_v,
            feature_subset=feature_subset,
            rng=rng,
            **(training_kwargs or {}),
        )

        proposal = simulate(
            trace,
            make_policy(policy, capacity_bytes, trace),
            admission=ClassifierAdmission.from_criteria(
                training.predictions, criteria
            ),
            policy_name=policy,
        )
        h_for_criteria = proposal.hit_rate

    ideal = None
    if include_ideal:
        ideal = simulate(
            trace,
            make_policy(policy, capacity_bytes, trace),
            admission=OracleAdmission(labels),
            policy_name=policy,
        )

    belady = None
    if include_belady:
        belady = simulate(
            trace,
            make_policy("belady", capacity_bytes, trace),
            policy_name="belady",
        )

    lm = LatencyModel(latency_constants)
    return ExperimentResult(
        policy=policy,
        capacity_bytes=capacity_bytes,
        capacity_fraction=capacity_fraction,
        criteria=criteria,
        original=original,
        proposal=proposal,
        ideal=ideal,
        belady=belady,
        training=training,
        latency_original=lm.average_latency(original.hit_rate, classified=False),
        latency_proposal=lm.average_latency(proposal.hit_rate, classified=True),
        cost_v=cost_v,
    )
