"""The paper's evaluation grid, with optional process-level parallelism.

Figures 6–10 need a grid of simulations: for every capacity, the four
configurations of five replacement policies.  Per capacity the expensive
intermediate state — the criterion solve, oracle labels, and the daily
classifier training — is *shared* across policies (the paper uses one
LRU-family criterion; LIRS gets the ``M·R_s`` variant), so the natural
unit of work is a **capacity block**
(:func:`repro.core.pipeline.capacity_block`).

Blocks are independent, which makes the grid embarrassingly parallel:
:meth:`GridRunner.precompute` fans blocks out over a
``concurrent.futures.ProcessPoolExecutor``.  The trace, the feature matrix
and the re-access distances are the pool's initializer arguments: inherited
by reference under ``fork``, pickled once per worker (never per task) under
``spawn`` and ``forkserver``, where each worker holds a private copy and
builds its own :class:`~repro.cache.segments.SegmentPlan` on its first
``simulate()`` — ~10 MB per worker for a 100 k-request trace, against ~2 s
per block (``docs/PERFORMANCE.md``, "Grid fan-out", has the measurements).
Blocks travel back as plain dataclasses.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from repro.cache.simulator import POLICY_REGISTRY
from repro.config import paper_capacity_fractions, paper_equivalent_bytes
from repro.core.features import extract_features
from repro.core.labeling import reaccess_distances
from repro.core.pipeline import CapacityBlock, ExperimentResult, capacity_block
from repro.trace.records import Trace

__all__ = [
    "POLICIES",
    "CONFIGS",
    "CapacityBlock",
    "GridRunner",
    "check_policies",
    "format_sweep_table",
    "resolve_start_method",
]

#: ``precompute(start_method="inline")`` computes serially in-process.
INLINE = "inline"


def resolve_start_method(start_method: str | None = None) -> str | None:
    """Validate the worker start method.

    ``None`` (or ``""``) means the platform's default multiprocessing
    context.  Accepts ``"inline"`` and any method in
    :func:`multiprocessing.get_all_start_methods`.
    """
    if not start_method:
        return None
    available = {INLINE, *multiprocessing.get_all_start_methods()}
    if start_method not in available:
        raise ValueError(
            f"unknown start method {start_method!r}; "
            f"choose from {sorted(available)}"
        )
    return start_method


def check_policies(policies) -> tuple[str, ...]:
    """``policies`` as a lower-case tuple, rejecting names ``make_policy``
    would not know.

    The grid checks this before it extracts features or starts a pool: a
    typo must not surface as a worker's re-raised error one block in.
    """
    for name in policies:
        if name.lower() not in POLICY_REGISTRY:
            raise ValueError(
                f"unknown policy {name!r}; choose from {sorted(POLICY_REGISTRY)}"
            )
    return tuple(name.lower() for name in policies)


POLICIES = ("lru", "fifo", "s3lru", "arc", "lirs")
CONFIGS = ("original", "proposal", "ideal", "belady")


# Worker-process state: the pool initializer's arguments, stored under
# ``capacity_block``'s parameter names.  Under fork they are the
# parent's own objects; under spawn / forkserver they arrive pickled once per
# worker, the trace without its memoised SegmentPlan (``Trace.__reduce__``),
# which the first ``simulate()`` rebuilds.
_WORKER: dict = {}


def _worker_init(trace: Trace, policies, distances, features) -> None:
    _WORKER.update(
        trace=trace, policies=policies, distances=distances, features=features
    )


def _compute_block_worker(cap: int, training_rng: int) -> CapacityBlock:
    """Pool entry point: the task carries the capacity, never the trace."""
    return capacity_block(**_WORKER, cap=cap, rng=training_rng)


class GridRunner:
    """Lazily-memoised evaluation grid over (policy, capacity) points.

    Parameters
    ----------
    trace:
        The workload to evaluate.
    fractions:
        Capacity axis as fractions of the trace footprint; defaults to the
        paper's 2–20 GB sweep mapped through
        :func:`repro.config.paper_capacity_fractions`.
    policies:
        Replacement policies to cover (default: the paper's five); a name
        outside ``POLICY_REGISTRY`` raises ``ValueError`` here.
    training_rng:
        Seed for the daily-training runs (kept fixed so points are
        reproducible regardless of evaluation order).
    """

    def __init__(
        self,
        trace: Trace,
        fractions=None,
        *,
        policies: tuple[str, ...] = POLICIES,
        training_rng: int = 0,
    ):
        self.policies = check_policies(policies)
        self.trace = trace
        self.fractions = list(fractions or paper_capacity_fractions())
        self.training_rng = training_rng
        self.footprint = trace.footprint_bytes
        self._distances = reaccess_distances(trace.object_ids)
        self._features = extract_features(trace)
        self._blocks: dict[int, CapacityBlock] = {}

    # ------------------------------------------------------------- mapping

    def capacity_bytes(self, fraction: float) -> int:
        return paper_equivalent_bytes(fraction, self.footprint).bytes

    def paper_gb(self, fraction: float) -> float:
        return paper_equivalent_bytes(fraction, self.footprint).paper_gb

    # ------------------------------------------------------------- compute

    def precompute(
        self,
        *,
        max_workers: int | None = None,
        start_method: str | None = None,
    ) -> None:
        """Fill every capacity block, optionally in parallel.

        ``max_workers=None`` resolves to ``min(n_blocks, cpu_count)``;
        ``max_workers=0`` or ``1`` computes serially in-process, as does
        ``start_method="inline"``.

        ``start_method`` picks the multiprocessing context (``fork``,
        ``spawn``, ``forkserver`` — whatever the platform offers; default:
        the platform's own).  The trace, the re-access distances and the
        feature matrix reach each worker once, as the pool's initializer
        arguments — no per-task serialisation of the trace, and
        bit-identical results across methods.  A worker's exception is
        re-raised here, a dead worker raises ``BrokenProcessPool``; either
        way the pool is shut down before this method returns.
        """
        caps = [self.capacity_bytes(f) for f in self.fractions]
        todo = [c for c in dict.fromkeys(caps) if c not in self._blocks]
        if not todo:
            return
        method = resolve_start_method(start_method)
        if max_workers is None:
            max_workers = min(len(todo), os.cpu_count() or 1)
        if method == INLINE or max_workers <= 1:
            for f in self.fractions:
                self.block(f)
            return
        with ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_worker_init,
            initargs=(self.trace, self.policies, self._distances, self._features),
        ) as pool:
            futures = {
                cap: pool.submit(_compute_block_worker, cap, self.training_rng)
                for cap in todo
            }
            for cap, fut in futures.items():
                self._blocks[cap] = fut.result()

    # -------------------------------------------------------------- access

    def point(self, policy: str, fraction: float) -> ExperimentResult:
        policy = policy.lower()
        if policy not in self.policies:
            raise ValueError(f"policy {policy!r} not in grid {self.policies}")
        return self.block(fraction).point(policy, fraction)

    def block(self, fraction: float) -> CapacityBlock:
        """The full per-capacity state (criteria, labels, trainings, sims)."""
        cap = self.capacity_bytes(fraction)
        if cap not in self._blocks:
            self._blocks[cap] = capacity_block(
                self.trace, self.policies, cap, distances=self._distances,
                features=self._features, rng=self.training_rng,
            )
        return self._blocks[cap]

    def sweep(self, policy: str, metric: str) -> dict[str, list[float]]:
        """``metric`` per configuration across the capacity axis."""
        out: dict[str, list[float]] = {c: [] for c in CONFIGS}
        for f in self.fractions:
            point = self.point(policy, f)
            for config in CONFIGS:
                out[config].append(point.rate(config, metric))
        return out


def format_sweep_table(
    title: str,
    runner: GridRunner,
    metric: str,
    *,
    policies=None,
    percent: bool = True,
) -> str:
    """Paper-style table: one block per policy, rows = configurations."""
    policies = policies or runner.policies
    caps_gb = [runner.paper_gb(f) for f in runner.fractions]
    lines = [
        title,
        "capacity (paper-scale GB): " + " ".join(f"{g:7.0f}" for g in caps_gb),
    ]
    for policy in policies:
        sweep = runner.sweep(policy, metric)
        lines.append(f"-- {policy.upper()} --")
        for config in CONFIGS:
            vals = sweep[config]
            fmt = (
                " ".join(f"{100 * v:6.1f}%" for v in vals)
                if percent
                else " ".join(f"{v:7.3f}" for v in vals)
            )
            lines.append(f"{config:>10s}: {fmt}")
    return "\n".join(lines)
