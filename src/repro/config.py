"""Experiment-wide constants and the capacity scaling rules (DESIGN.md §5).

The paper evaluates a 1:100-sampled trace (~14 M objects) with cache sizes of
2–20 GB.  This reproduction runs a further down-scaled synthetic trace, so
capacities are expressed as *fractions of the trace's unique-byte footprint*;
:func:`paper_equivalent_bytes` maps a scaled capacity back to the paper's
axis so every benchmark can print both.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LatencyConstants",
    "DEFAULT_LATENCY",
    "PAPER_CAPACITIES_GB",
    "PAPER_TRACE_FOOTPRINT_GB",
    "COST_BOUNDARY_FRACTION",
    "ScaledCapacity",
    "paper_equivalent_bytes",
    "paper_capacity_fractions",
]

GiB = 2**30


@dataclass(frozen=True)
class LatencyConstants:
    """Device/service times for the Eq. 3–6 latency model (§5.3.5).

    Values are the paper's measured constants for a 32 KB photo, in seconds.
    """

    t_query: float = 1e-6       # cache index lookup
    t_classify: float = 0.4e-6  # decision tree + history table
    t_hddr: float = 3e-3        # HDD read (backend)
    t_ssdr: float = 0.1e-3      # SSD read (cache hit); typical SATA SSD

    def __post_init__(self) -> None:
        for name in ("t_query", "t_classify", "t_hddr", "t_ssdr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


DEFAULT_LATENCY = LatencyConstants()

#: The paper's x-axis: cache capacities in GB on the 1:100-sampled trace.
PAPER_CAPACITIES_GB = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)

#: Approximate unique-byte footprint of the paper's sampled trace: ~14 M
#: objects at ~32 KB mean photo size ≈ 450 GB.  Used only for the
#: capacity-fraction mapping, so precision here affects labels, not results.
PAPER_TRACE_FOOTPRINT_GB = 14e6 * 32 * 1024 / GiB

#: The paper's cost-matrix boundary (12 GB on its trace) as a footprint
#: fraction, so the v=2→3 switch scales with the synthetic workload.
COST_BOUNDARY_FRACTION = 12.0 / PAPER_TRACE_FOOTPRINT_GB


@dataclass(frozen=True)
class ScaledCapacity:
    """A cache capacity on the down-scaled trace with its paper-scale label."""

    bytes: int
    fraction_of_footprint: float
    paper_gb: float

    def __str__(self) -> str:
        return (
            f"{self.bytes / GiB:.4f} GiB scaled "
            f"({100 * self.fraction_of_footprint:.2f}% of footprint, "
            f"≈{self.paper_gb:.1f} GB at paper scale)"
        )


def paper_capacity_fractions() -> list[float]:
    """The paper's 2–20 GB sweep as fractions of its trace footprint."""
    return [gb / PAPER_TRACE_FOOTPRINT_GB for gb in PAPER_CAPACITIES_GB]


def paper_equivalent_bytes(
    fraction: float, trace_footprint_bytes: int
) -> ScaledCapacity:
    """Scale a capacity *fraction* onto a concrete trace.

    Parameters
    ----------
    fraction:
        Capacity as a fraction of the trace's unique-byte footprint
        (e.g. from :func:`paper_capacity_fractions`).
    trace_footprint_bytes:
        Sum of unique object sizes in the trace being simulated.
    """
    if not 0 < fraction:
        raise ValueError("fraction must be positive")
    if trace_footprint_bytes <= 0:
        raise ValueError("trace_footprint_bytes must be positive")
    return ScaledCapacity(
        bytes=max(1, int(fraction * trace_footprint_bytes)),
        fraction_of_footprint=fraction,
        paper_gb=fraction * PAPER_TRACE_FOOTPRINT_GB,
    )
