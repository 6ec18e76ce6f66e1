"""Background daily retraining for the serving node (§4.4.3, live).

The paper retrains its cost-sensitive CART every day at 05:00 on the
previous 24 hours of sampled log data.  :class:`Retrainer` reproduces that
loop against a running :class:`~repro.server.node.CacheNode`:

* **clock** — boundaries are *trace time* (the replay's logical clock,
  :attr:`CacheNode.trace_clock`), so a 200× speed-up replay retrains 200×
  as often in wall time, exactly like re-running history faster;
* **matured labels only** — a training sample at position *i* is usable
  once ``M`` further requests have been observed (the §4.4.2 maturity
  horizon); unmatured tail positions are excluded rather than mislabelled,
  the same delayed-label rule :mod:`repro.core.monitoring` scores with;
* **off the hot path** — ``fit`` runs in a worker thread via
  ``run_in_executor``; the event loop keeps serving GETs meanwhile;
* **atomic swap** — the fitted model is installed with
  :meth:`CacheNode.install_model`, a single reference assignment read once
  per micro-batch, so no request ever sees a half-swapped model.

Each retrain also scores the node's recorded verdict stream with
:func:`repro.core.monitoring.evaluate_admission_decisions`, giving the
drift telemetry (worst-window accuracy) that tells an operator whether
the daily cadence is keeping up.
"""

from __future__ import annotations

import asyncio
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.features import PAPER_FEATURE_NAMES, extract_features
from repro.core.labeling import one_time_labels
from repro.core.monitoring import evaluate_admission_decisions
from repro.core.training import (
    MIN_TRAIN_SAMPLES,
    RETRAIN_HOUR,
    SAMPLES_PER_MINUTE,
    paper_classifier,
    sample_per_minute,
)
from repro.obs.spans import NULL_TRACER
from repro.obs.structlog import get_logger

__all__ = ["RetrainerConfig", "Retrainer"]

logger = get_logger("server.retrainer")

DAY = 86400.0


def _outcome(record: dict) -> str:
    """The ``trained`` label of one :attr:`Retrainer.history` record."""
    return "yes" if record["trained"] else "no"


@dataclass(frozen=True)
class RetrainerConfig:
    """Retraining schedule.  Each retrain trains on the last ``period`` of
    history, thinned to :data:`~repro.core.training.SAMPLES_PER_MINUTE`."""

    period: float = DAY          # trace seconds between retrains
    retrain_hour: float = RETRAIN_HOUR  # first boundary: retrain_hour o'clock
    poll_seconds: float = 0.05   # wall-clock cadence of the boundary check

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.retrain_hour < 24.0:
            raise ValueError("retrain_hour must be in [0, 24)")


class Retrainer:
    """Drives periodic (and on-demand ``RELOAD``) model refreshes."""

    def __init__(self, node, cfg: RetrainerConfig | None = None):
        if node.criteria is None or node.tracker is None:
            raise ValueError("retrainer requires a node with a classifier stack")
        self.node = node
        self.cfg = cfg if cfg is not None else RetrainerConfig()
        # Features are pure request-time functions, so precomputing the full
        # matrix is equivalent to buffering online-built rows (and is what
        # keeps `fit` self-contained in the worker thread).
        self._fm = extract_features(node.trace).select(PAPER_FEATURE_NAMES)
        self._rng = np.random.default_rng(node.cfg.seed)
        self.history: list[dict] = []  # also what the three metric families read
        node.registry.counter(
            "repro_retrains_total",
            "Retrain attempts by outcome (trained=yes swapped a model in).",
            ("trained",),
            read=lambda: Counter(map(_outcome, self.history)).items(),
        )
        node.registry.gauge(
            "repro_retrain_worst_window_accuracy",
            "Worst-window matured admission accuracy at the last retrain.",
            read=lambda: self._last("worst_window_accuracy"),
        )
        node.registry.gauge(
            "repro_retrain_train_samples",
            "Training rows selected for the last retrain attempt.",
            read=lambda: self._last("n_train"),
        )

    def _last(self, field: str) -> float:
        """``field`` of the latest retrain that reported one (else 0)."""
        for rec in reversed(self.history):
            if rec[field] is not None:
                return rec[field]
        return 0.0

    @property
    def retrains(self) -> int:
        """Retrains that swapped a model in."""
        return sum(rec["trained"] for rec in self.history)

    async def run(self) -> None:
        """Poll the node's trace clock and retrain at each boundary."""
        boundary = self.cfg.retrain_hour * 3600.0
        if boundary <= 0.0:
            boundary += self.cfg.period
        while True:
            await asyncio.sleep(self.cfg.poll_seconds)
            while self.node.trace_clock >= boundary:
                await self._retrain_at(boundary)
                boundary += self.cfg.period

    async def retrain_now(self) -> dict:
        """Immediate retrain on everything observed so far (RELOAD op)."""
        return await self._retrain_at(self.node.trace_clock)

    # ---------------------------------------------------------------- inner

    def _select_training_rows(self, t_cut: float) -> np.ndarray:
        node, cfg = self.node, self.cfg
        ts = node.trace.timestamps
        horizon = int(math.ceil(node.criteria.m_threshold))
        matured_end = node.processed - horizon
        if matured_end <= 0:
            return np.empty(0, dtype=np.int64)
        lo, hi = np.searchsorted(ts, [max(0.0, t_cut - cfg.period), t_cut])
        hi = min(hi, matured_end)
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        rows = np.arange(lo, hi)
        picked = sample_per_minute(ts[rows], SAMPLES_PER_MINUTE, self._rng)
        return rows[picked]

    async def _retrain_at(self, t_cut: float) -> dict:
        node = self.node
        record = {
            "t_cut": float(t_cut),
            "trained": False,
            "n_train": 0,
            "model_version": node.model_version,
            "worst_window_accuracy": None,
        }
        spans = getattr(node, "spans", None) or NULL_TRACER
        with spans.span("retrain", "retrainer", t_cut=float(t_cut)):
            # Snapshot: select matured rows and build their labels.  For
            # every selected row the full M-request lookahead lies inside
            # the observed prefix, so these labels equal the full-trace
            # oracle labels at those positions.
            with spans.span("snapshot", "retrainer") as snap:
                rows = self._select_training_rows(t_cut)
                record["n_train"] = int(rows.shape[0])
                n_obs = node.processed
                m = node.criteria.m_threshold
                X = y = None
                if rows.shape[0] >= MIN_TRAIN_SAMPLES:
                    prefix_oids = node.trace.object_ids[:n_obs]
                    labels = one_time_labels(prefix_oids, m)
                    y = labels[rows]
                    if np.unique(y).shape[0] == 2:
                        X = self._fm.X[rows]
                    else:
                        y = None
                snap.annotate(rows=record["n_train"])
            if X is not None:
                seed = int(self._rng.integers(0, 2**63 - 1))
                model = paper_classifier(
                    node.cfg.cost_v, node.cfg.max_splits, seed
                )
                loop = asyncio.get_running_loop()
                with spans.span("fit", "retrainer", rows=record["n_train"]):
                    await loop.run_in_executor(None, model.fit, X, y)
                with spans.span("swap", "retrainer"):
                    record["model_version"] = node.install_model(model)
                record["trained"] = True

        # Drift telemetry on the matured verdict stream.
        horizon = int(math.ceil(m))
        if n_obs > horizon:
            quality = evaluate_admission_decisions(
                node.trace.object_ids[:n_obs],
                node.denied_mask[:n_obs],
                m,
            )
            worst = quality.worst_window()
            acc = quality.accuracy[worst]
            if np.isfinite(acc):
                record["worst_window_accuracy"] = float(acc)

        logger.info(
            "retrain at t=%.0f: trained=%s n_train=%d version=%d worst_acc=%s",
            record["t_cut"],
            record["trained"],
            record["n_train"],
            record["model_version"],
            record["worst_window_accuracy"],
            extra={
                "t_cut": record["t_cut"],
                "trained": record["trained"],
                "n_train": record["n_train"],
                "model_version": record["model_version"],
                "worst_window_accuracy": record["worst_window_accuracy"],
            },
        )
        self.history.append(record)
        return record
