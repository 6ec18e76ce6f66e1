"""Scenario results: per-phase counters, latency percentiles, oracle gaps.

A scenario replay is cut into **phases** at every event boundary (each
``at`` and window end), so the disruption and the recovery are separately
measurable.  Each phase carries exact request-flow counters, SSD-write
attribution (primary vs replica), seeded latency percentiles from a
:class:`repro.obs.registry.Reservoir`, and — when the oracle comparator
ran — the hit/write-rate gap against an idealised single cache of the same
aggregate capacity.

``ScenarioReport.to_dict()`` is the JSON written by
``benchmarks/bench_cluster_scenario.py`` and ``repro scenario --json``;
it is tagged ``"kind": "cluster_scenario"`` so a reader can tell scenario
reports from the other benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PhaseStats", "ScenarioReport", "format_report"]

REPORT_KIND = "cluster_scenario"


@dataclass
class PhaseStats:
    """Counters for one inter-boundary slice of the merged replay."""

    index: int
    start: int                 # merged-trace request index, inclusive
    end: int                   # exclusive
    active: tuple[str, ...]    # human-readable descriptions of live faults
    steady: bool               # no fault active anywhere in the phase
    pristine: bool             # ends before the first divergence from the
                               # failure-free baseline (exact-equality zone)
    requests: int = 0
    oc_hits: int = 0
    dc_hits: int = 0
    backend_reads: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0         # bytes served by the OC tier
    primary_writes: int = 0    # OC SSD writes on the request path
    replica_writes: int = 0    # OC SSD writes from replica write-through
    dc_writes: int = 0
    admissions_denied: int = 0
    # Write-provenance deltas from the run's WriteLedger (None when the
    # replay carried no ledger, e.g. hand-built phases in tests).
    writes_by_cause: dict | None = None
    avoided_writes: int = 0
    avoided_bytes: int = 0
    latency_mean: float = 0.0
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    latency_p999: float = 0.0
    # Oracle comparator (None until the comparator fills them in).
    oracle_hit_rate: float | None = None
    oracle_write_rate: float | None = None

    @property
    def oc_hit_rate(self) -> float:
        return self.oc_hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_rate(self) -> float:
        if not self.bytes_requested:
            return 0.0
        return self.bytes_hit / self.bytes_requested

    @property
    def write_rate(self) -> float:
        """Primary OC SSD writes per request (replicas reported apart)."""
        return self.primary_writes / self.requests if self.requests else 0.0

    @property
    def hit_gap(self) -> float | None:
        """Cluster − oracle OC hit rate (negative: cluster loses hits)."""
        if self.oracle_hit_rate is None:
            return None
        return self.oc_hit_rate - self.oracle_hit_rate

    @property
    def write_gap(self) -> float | None:
        """Cluster − oracle write rate (positive: cluster writes more)."""
        if self.oracle_write_rate is None:
            return None
        return self.write_rate - self.oracle_write_rate

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "active": list(self.active),
            "steady": self.steady,
            "pristine": self.pristine,
            "requests": self.requests,
            "oc_hits": self.oc_hits,
            "dc_hits": self.dc_hits,
            "backend_reads": self.backend_reads,
            "bytes_requested": self.bytes_requested,
            "bytes_hit": self.bytes_hit,
            "oc_hit_rate": self.oc_hit_rate,
            "byte_hit_rate": self.byte_hit_rate,
            "primary_writes": self.primary_writes,
            "replica_writes": self.replica_writes,
            "dc_writes": self.dc_writes,
            "admissions_denied": self.admissions_denied,
            "writes_by_cause": (
                dict(self.writes_by_cause)
                if self.writes_by_cause is not None
                else None
            ),
            "avoided_writes": self.avoided_writes,
            "avoided_bytes": self.avoided_bytes,
            "write_rate": self.write_rate,
            "latency_mean": self.latency_mean,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "latency_p999": self.latency_p999,
            "oracle_hit_rate": self.oracle_hit_rate,
            "oracle_write_rate": self.oracle_write_rate,
            "hit_gap": self.hit_gap,
            "write_gap": self.write_gap,
        }


@dataclass
class ScenarioReport:
    """Everything one scenario run produced."""

    name: str
    spec: dict                   # ScenarioSpec.to_dict() snapshot
    phases: list[PhaseStats]
    base_requests: int           # spec.requests (pre-flood)
    injected_requests: int       # extra requests merged in by floods
    merged_requests: int
    baseline_checked: bool       # whether the failure-free baseline ran
    baseline_equal: bool         # pristine phases matched it exactly
    events_applied: list[str] = field(default_factory=list)
    #: ``WriteLedger.snapshot()`` of the main replay, plus
    #: ``cluster_ssd_writes`` and the ``exact`` invariant flag (per-cause
    #: totals sum to the cluster's own write counters, retired included).
    ledger: dict | None = None

    # ------------------------------------------------------------ aggregates

    @property
    def requests(self) -> int:
        return sum(p.requests for p in self.phases)

    @property
    def oc_hit_rate(self) -> float:
        n = self.requests
        return sum(p.oc_hits for p in self.phases) / n if n else 0.0

    @property
    def total_oc_writes(self) -> int:
        return sum(p.primary_writes + p.replica_writes for p in self.phases)

    @property
    def max_abs_hit_gap(self) -> float | None:
        gaps = [abs(p.hit_gap) for p in self.phases if p.hit_gap is not None]
        return max(gaps) if gaps else None

    @property
    def max_abs_write_gap(self) -> float | None:
        gaps = [abs(p.write_gap) for p in self.phases if p.write_gap is not None]
        return max(gaps) if gaps else None

    def to_dict(self) -> dict:
        return {
            "kind": REPORT_KIND,
            "name": self.name,
            "spec": self.spec,
            "base_requests": self.base_requests,
            "injected_requests": self.injected_requests,
            "merged_requests": self.merged_requests,
            "baseline_checked": self.baseline_checked,
            "baseline_equal": self.baseline_equal,
            "events_applied": list(self.events_applied),
            "ledger": self.ledger,
            "oc_hit_rate": self.oc_hit_rate,
            "total_oc_writes": self.total_oc_writes,
            "max_abs_hit_gap": self.max_abs_hit_gap,
            "max_abs_write_gap": self.max_abs_write_gap,
            "phases": [p.to_dict() for p in self.phases],
        }


def format_report(report: ScenarioReport) -> str:
    """Fixed-width phase table plus the headline aggregates."""
    lines = [
        f"scenario {report.name!r}: {report.merged_requests:,} requests "
        f"({report.base_requests:,} base + {report.injected_requests:,} injected)",
        f"overall OC hit rate {report.oc_hit_rate:.3f}, "
        f"OC SSD writes {report.total_oc_writes:,}",
    ]
    if report.baseline_checked:
        verdict = "exact match" if report.baseline_equal else "MISMATCH"
        lines.append(f"pristine phases vs failure-free baseline: {verdict}")
    if report.ledger is not None:
        led = report.ledger
        causes = ", ".join(
            f"{cause} {count:,}"
            for cause, count in led["writes_by_cause"].items()
        )
        verdict = "exact" if led.get("exact") else "MISMATCH"
        lines.append(
            f"write provenance ({verdict} vs {led['cluster_ssd_writes']:,} "
            f"cluster writes): {causes}; "
            f"avoided {led['avoided_writes']:,} writes "
            f"({led['avoided_bytes']:,} bytes)"
        )
    header = (
        f"{'phase':>5} {'span':>19} {'req':>8} {'hit':>6} {'wr':>6} "
        f"{'p50ms':>7} {'p99ms':>7} {'p999ms':>7} {'gap(hit)':>9} "
        f"{'gap(wr)':>8}  active"
    )
    lines.append(header)
    for p in report.phases:
        hg = f"{p.hit_gap:+.3f}" if p.hit_gap is not None else "-"
        wg = f"{p.write_gap:+.3f}" if p.write_gap is not None else "-"
        tag = ", ".join(p.active) if p.active else (
            "steady" if p.steady else ""
        )
        lines.append(
            f"{p.index:>5} {p.start:>9,}-{p.end:<9,} {p.requests:>8,} "
            f"{p.oc_hit_rate:>6.3f} {p.write_rate:>6.3f} "
            f"{1e3 * p.latency_p50:>7.3f} {1e3 * p.latency_p99:>7.3f} "
            f"{1e3 * p.latency_p999:>7.3f} {hg:>9} {wg:>8}  {tag}"
        )
    return "\n".join(lines)
