"""Shared infrastructure for the figure/table benchmarks.

The heavy lifting lives in :mod:`repro.experiments.grid` (a library
feature); this module only fixes the benchmark scale and provides result
persistence.  Scale is controlled by ``REPRO_BENCH_OBJECTS`` (default
25 000 objects ≈ 100 k requests — a documented down-scale of the paper's
14 M-object sampled trace, see DESIGN.md §5).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.experiments.grid import (  # noqa: F401  (re-exported for benches)
    CONFIGS,
    POLICIES,
    GridRunner,
    format_sweep_table,
)
from repro.trace.generator import WorkloadConfig

BENCH_OBJECTS = int(os.environ.get("REPRO_BENCH_OBJECTS", "25000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "9"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))

RESULTS_DIR = Path(__file__).parent / "results"


def make_bench_workload() -> WorkloadConfig:
    return WorkloadConfig(n_objects=BENCH_OBJECTS, seed=BENCH_SEED)


def write_result(name: str, content: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n")
    return path


def emit(capsys, name: str, content: str) -> None:
    """Print a result table live (bypassing capture) and persist it."""
    path = write_result(name, content)
    with capsys.disabled():
        print(f"\n{content}\n[saved to {path}]")
