"""Head-to-head: classifier vs flashiness vs composed, judged at the device.

The paper's admission classifier and Flashield-style staging both avoid
SSD writes, by different evidence: the classifier predicts one-time
objects from features at miss time, the staging tier demands observed
re-accesses in DRAM before any flash write.  This module runs the four
relevant schemes through one ``simulate()`` sweep per capacity point —

* ``no-admission`` — :class:`~repro.cache.hierarchy.HierarchicalCache`,
  every miss written;
* ``classifier``   — the same hierarchy behind
  :class:`~repro.core.admission.ClassifierAdmission`;
* ``flashiness``   — :class:`~repro.cache.staging.StagingCache`, objects
  must cross the flashiness bar;
* ``composed``     — staging *and* the classifier: the miss-time verdict
  marks staged objects (in)eligible, the bar must still be crossed —

each attached to its own :class:`~repro.ssd.cache_device.CacheSSD` with a
DFTL-style cached mapping table, so the comparison is settled in device
currency: write amplification, erase counts, CMT pressure and projected
lifetime, not just write totals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.hierarchy import HierarchicalCache
from repro.cache.staging import StagingCache
from repro.config import COST_BOUNDARY_FRACTION
from repro.core.admission import ClassifierAdmission
from repro.core.criteria import solve_criteria
from repro.core.labeling import labels_from_distances, reaccess_distances
from repro.core.training import train_daily_classifier
from repro.ml.cost_sensitive import select_cost_v
from repro.ssd.cache_device import CacheSSD, simulate_on_ssd
from repro.trace.records import Trace

__all__ = [
    "HIT_RATE_SLACK",
    "SCHEMES",
    "SchemeOutcome",
    "StagingComparison",
    "StagingPoint",
    "check_write_ordering",
    "format_staging_table",
    "run_staging_comparison",
]

#: Report order: baselines first, then the mechanisms, then the composition.
SCHEMES = ("no-admission", "classifier", "flashiness", "composed")

#: Default capacity sweep (fractions of the trace's unique-byte footprint):
#: a small / medium / large cut through the paper's 2–20 GB grid shape.
DEFAULT_FRACTIONS = (0.02, 0.05, 0.10)


@dataclass
class SchemeOutcome:
    """One scheme at one capacity, cache-level and device-level."""

    scheme: str
    hit_rate: float
    byte_hit_rate: float
    ssd_writes: int
    bytes_written: int
    write_amplification: float
    erases: int
    cmt_miss_rate: float
    cmt_lookups: int
    lifetime_days: float
    denied: int
    promotions: int
    direct_admits: int

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "hit_rate": self.hit_rate,
            "byte_hit_rate": self.byte_hit_rate,
            "ssd_writes": self.ssd_writes,
            "bytes_written": self.bytes_written,
            "write_amplification": self.write_amplification,
            "erases": self.erases,
            "cmt_miss_rate": self.cmt_miss_rate,
            "cmt_lookups": self.cmt_lookups,
            "lifetime_days": self.lifetime_days,
            "denied": self.denied,
            "promotions": self.promotions,
            "direct_admits": self.direct_admits,
        }


@dataclass
class StagingPoint:
    """All four schemes at one capacity point."""

    fraction: float
    capacity_bytes: int
    outcomes: dict[str, SchemeOutcome]

    def to_dict(self) -> dict:
        return {
            "fraction": self.fraction,
            "capacity_bytes": self.capacity_bytes,
            "schemes": {k: v.to_dict() for k, v in self.outcomes.items()},
        }


@dataclass
class StagingComparison:
    """The full sweep plus the workload identity it ran against."""

    points: list[StagingPoint]
    footprint_bytes: int
    n_requests: int
    flashiness_threshold: int
    dram_fraction: float

    def to_dict(self) -> dict:
        return {
            "points": [p.to_dict() for p in self.points],
            "footprint_bytes": self.footprint_bytes,
            "n_requests": self.n_requests,
            "flashiness_threshold": self.flashiness_threshold,
            "dram_fraction": self.dram_fraction,
        }


def _outcome(scheme: str, report, policy, admission) -> SchemeOutcome:
    stats = report.simulation.stats
    ftl = report.device.ftl.stats
    cmt = report.device.cmt
    return SchemeOutcome(
        scheme=scheme,
        hit_rate=stats.hit_rate,
        byte_hit_rate=stats.byte_hit_rate,
        ssd_writes=stats.files_written,
        bytes_written=stats.bytes_written,
        write_amplification=ftl.write_amplification,
        erases=ftl.erases,
        cmt_miss_rate=report.cmt_miss_rate,
        cmt_lookups=cmt.stats.lookups if cmt is not None else 0,
        lifetime_days=report.lifetime.lifetime_days,
        denied=getattr(admission, "denied", 0) if admission is not None else 0,
        promotions=getattr(policy, "promotions", 0),
        direct_admits=getattr(policy, "direct_admits", 0),
    )


def run_staging_comparison(
    trace: Trace,
    *,
    fractions=DEFAULT_FRACTIONS,
    dram_fraction: float = 0.05,
    flashiness_threshold: int = 1,
    redemption_delta: int = 1,
    training_rng: int = 0,
    cmt_fraction: float = 0.25,
) -> StagingComparison:
    """Run the four-scheme sweep over ``fractions`` of the footprint.

    The classifier is trained once per capacity point through the same
    chain the grid runner uses (criteria fixed point → one-time labels →
    daily cost-sensitive training).  Every fraction must be positive.

    In the composed scheme a classifier denial raises the staged object's
    bar to ``flashiness_threshold + redemption_delta`` instead of blocking
    it outright: observed re-accesses contradict a one-time prediction,
    so strong-enough evidence overrides it (the redemption path of
    :class:`~repro.cache.staging.StagingCache`).
    """
    from repro.core.features import extract_features

    for fraction in fractions:
        if fraction <= 0:
            raise ValueError(
                f"capacity fraction must be positive, got {fraction!r}"
            )
    footprint = trace.footprint_bytes
    mean_size = trace.mean_object_size()
    distances = reaccess_distances(trace.object_ids)
    features = extract_features(trace)
    points: list[StagingPoint] = []

    for fraction in fractions:
        cap = max(1, int(footprint * fraction))
        criteria = solve_criteria(distances, cap, mean_size)
        cost_v = select_cost_v(
            cap, boundary_bytes=COST_BOUNDARY_FRACTION * footprint
        )
        labels = labels_from_distances(distances, criteria.m_threshold)
        training = train_daily_classifier(
            trace, features, labels, cost_v=cost_v, rng=training_rng
        )

        def classifier():
            return ClassifierAdmission.from_criteria(
                training.predictions, criteria
            )

        runs = {
            "no-admission": (
                HierarchicalCache.for_capacity(cap, dram_fraction=dram_fraction),
                None,
            ),
            "classifier": (
                HierarchicalCache.for_capacity(cap, dram_fraction=dram_fraction),
                classifier(),
            ),
            "flashiness": (
                StagingCache.for_capacity(
                    cap,
                    dram_fraction=dram_fraction,
                    threshold=flashiness_threshold,
                ),
                None,
            ),
            "composed": (
                StagingCache.for_capacity(
                    cap,
                    dram_fraction=dram_fraction,
                    threshold=flashiness_threshold,
                    redemption_threshold=flashiness_threshold
                    + redemption_delta,
                ),
                classifier(),
            ),
        }

        outcomes: dict[str, SchemeOutcome] = {}
        for scheme in SCHEMES:
            policy, admission = runs[scheme]
            device = CacheSSD.for_capacity(
                cap,
                mean_object_bytes=mean_size,
                cmt_fraction=cmt_fraction,
            )
            report = simulate_on_ssd(
                trace,
                policy,
                admission=admission,
                device=device,
                policy_name=scheme,
            )
            outcomes[scheme] = _outcome(scheme, report, policy, admission)
        points.append(
            StagingPoint(
                fraction=float(fraction),
                capacity_bytes=cap,
                outcomes=outcomes,
            )
        )

    return StagingComparison(
        points=points,
        footprint_bytes=footprint,
        n_requests=len(trace.object_ids),
        flashiness_threshold=flashiness_threshold,
        dram_fraction=dram_fraction,
    )


#: Default hit-rate tolerance for :func:`check_write_ordering`.  The
#: composed scheme admits a strict subset of what the flashiness bar alone
#: admits, so on a small (write-starved) SSD its hit rate sits *at most*
#: at the flashiness level; the slack prices the classifier's residual
#: false negatives on staged objects (bounded by the redemption bar) at
#: two hit-rate points.
HIT_RATE_SLACK = 0.02


def check_write_ordering(
    comparison: StagingComparison, *, hit_rate_slack: float = HIT_RATE_SLACK
) -> list[str]:
    """The composition contract, checked per capacity point.

    ``composed`` must write no more than either mechanism alone, while
    holding a hit rate at least ``min(classifier, flashiness)`` (less
    ``hit_rate_slack``, default :data:`HIT_RATE_SLACK`).  Returns
    human-readable violations — empty means the contract holds everywhere.
    """
    problems: list[str] = []
    for point in comparison.points:
        o = point.outcomes
        comp, cls, fl = o["composed"], o["classifier"], o["flashiness"]
        tag = f"fraction {point.fraction:g}"
        if comp.ssd_writes > cls.ssd_writes:
            problems.append(
                f"{tag}: composed writes {comp.ssd_writes} > "
                f"classifier {cls.ssd_writes}"
            )
        if comp.ssd_writes > fl.ssd_writes:
            problems.append(
                f"{tag}: composed writes {comp.ssd_writes} > "
                f"flashiness {fl.ssd_writes}"
            )
        floor = min(cls.hit_rate, fl.hit_rate) - hit_rate_slack
        if comp.hit_rate < floor:
            problems.append(
                f"{tag}: composed hit rate {comp.hit_rate:.4f} < "
                f"floor {floor:.4f}"
            )
    return problems


def format_staging_table(comparison: StagingComparison) -> str:
    """Fixed-width head-to-head table (one block per capacity point)."""
    lines = [
        f"{'capacity':>9} {'scheme':<13} {'hit':>6} {'writes':>9} "
        f"{'WA':>6} {'CMT miss':>8} {'erases':>7} {'life(d)':>9}"
    ]
    for point in comparison.points:
        cap_mib = point.capacity_bytes / 2**20
        for scheme in SCHEMES:
            o = point.outcomes[scheme]
            lines.append(
                f"{cap_mib:>8.1f}M {scheme:<13} {o.hit_rate:>6.3f} "
                f"{o.ssd_writes:>9,} {o.write_amplification:>6.3f} "
                f"{o.cmt_miss_rate:>8.3f} {o.erases:>7,} "
                f"{o.lifetime_days:>9,.0f}"
            )
    return "\n".join(lines)
