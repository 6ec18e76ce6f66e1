"""Experiment orchestration: the Figs. 6–10 grid and parallel sweeps.

:class:`~repro.experiments.grid.GridRunner` evaluates the paper's full
evaluation grid — replacement policies × capacities × {Original, Proposal,
Ideal, Belady} — sharing per-capacity state (criteria, labels, classifier
training) across policies exactly as the paper does.  Capacity blocks are
independent, so the grid parallelises across processes with
:meth:`~repro.experiments.grid.GridRunner.precompute` — a plain
``ProcessPoolExecutor`` whose initializer arguments are the trace and its
derived arrays, under whichever start method the platform offers.
"""

from repro.experiments.grid import (
    CONFIGS,
    POLICIES,
    CapacityBlock,
    GridRunner,
    check_policies,
    format_sweep_table,
    resolve_start_method,
)
from repro.experiments.staging import (
    HIT_RATE_SLACK,
    SCHEMES,
    SchemeOutcome,
    StagingComparison,
    StagingPoint,
    check_write_ordering,
    format_staging_table,
    run_staging_comparison,
)

__all__ = [
    "HIT_RATE_SLACK",
    "SCHEMES",
    "SchemeOutcome",
    "StagingComparison",
    "StagingPoint",
    "check_write_ordering",
    "format_staging_table",
    "run_staging_comparison",
    "CONFIGS",
    "POLICIES",
    "CapacityBlock",
    "GridRunner",
    "check_policies",
    "format_sweep_table",
    "resolve_start_method",
]
