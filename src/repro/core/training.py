"""Daily cost-sensitive training of the caching classifier (§4.4).

The paper trains a CART tree every day at 05:00 on the previous 24 hours of
(sampled) log data, with the Table-4 cost matrix, then classifies the next
day's traffic.  :func:`train_daily_classifier` reproduces that loop over a
trace and returns per-access predictions plus per-day quality metrics (the
data behind Fig. 5).

Labelling note: like the paper's own data tagging, a training sample's
label needs up to ``M`` accesses of lookahead beyond the training cut — in
production one simply waits until the label matures.  The *features* are
strictly request-time information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import FeatureMatrix, PAPER_FEATURE_NAMES
from repro.core.labeling import ONE_TIME
from repro.ml.cost_sensitive import CostMatrix, CostSensitiveClassifier
from repro.ml.metrics import accuracy_score, precision_score, recall_score
from repro.ml.tree import DecisionTreeClassifier
from repro.trace.records import Trace

__all__ = [
    "DailyTrainingResult",
    "MAX_SPLITS",
    "MIN_TRAIN_SAMPLES",
    "RETRAIN_HOUR",
    "SAMPLES_PER_MINUTE",
    "paper_classifier",
    "sample_per_minute",
    "train_daily_classifier",
]

DAY = 86400.0
#: Hour of day of the first (and, at a daily cadence, every) retrain:
#: 05:00 in the paper, the system-load trough (§4.4.3).
RETRAIN_HOUR = 5.0
#: Training-set thinning: at most this many log records per minute (§3.1.1).
SAMPLES_PER_MINUTE = 100
#: A training window with fewer rows than this trains no model; the
#: segment (or node) admits everything instead.
MIN_TRAIN_SAMPLES = 50
#: The CART's split budget.
MAX_SPLITS = 30


@dataclass
class DailyTrainingResult:
    """Predictions and per-day telemetry from the daily training loop."""

    predictions: np.ndarray          # per-access verdict (1 = one-time)
    daily_metrics: list[dict] = field(default_factory=list)
    feature_names: tuple[str, ...] = ()
    models: list = field(default_factory=list)

    @property
    def overall(self) -> dict:
        """Request-weighted means of the daily metrics (scored days only)."""
        scored = [m for m in self.daily_metrics if m["n_eval"] > 0 and m["trained"]]
        if not scored:
            return {"precision": 0.0, "recall": 0.0, "accuracy": 0.0}
        w = np.array([m["n_eval"] for m in scored], dtype=np.float64)
        w = w / w.sum()
        return {
            k: float(np.sum(w * np.array([m[k] for m in scored])))
            for k in ("precision", "recall", "accuracy")
        }

    def feature_importances(self) -> dict[str, float]:
        """Mean split importance per feature across the daily trees.

        Answers "what does the deployed classifier actually key on" —
        the interpretability view behind the paper's §3.2.2 selection.
        Returns an empty dict when no segment trained a model.
        """
        stacks = [
            model.model_.feature_importances_
            for model in self.models
            if model is not None
        ]
        if not stacks:
            return {}
        mean = np.mean(stacks, axis=0)
        return {
            name: float(v)
            for name, v in sorted(
                zip(self.feature_names, mean), key=lambda kv: -kv[1]
            )
        }


def sample_per_minute(
    timestamps: np.ndarray,
    limit: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Indices of at most ``limit`` records per wall-clock minute (§3.1.1).

    Vectorised: a random tie-break key inside each minute, then keep the
    first ``limit`` per group.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    ts = np.asarray(timestamps, dtype=np.float64)
    minute = (ts // 60.0).astype(np.int64)
    jitter = rng.random(ts.shape[0])
    order = np.lexsort((jitter, minute))
    sorted_minute = minute[order]
    # Rank of each record within its minute group.
    new_group = np.r_[True, sorted_minute[1:] != sorted_minute[:-1]]
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(ts.shape[0]), 0))
    rank = np.arange(ts.shape[0]) - group_start
    return np.sort(order[rank < limit])


def paper_classifier(
    cost_v: float, max_splits: int, seed: int | None
) -> CostSensitiveClassifier:
    """The paper's unfitted model (§4.4.1, Table 4): a ``max_splits``-split
    CART seeded with ``seed`` under the cost matrix fn = 1, fp = ``cost_v``."""
    return CostSensitiveClassifier(
        DecisionTreeClassifier(max_splits=max_splits, rng=seed),
        CostMatrix(fn_cost=1.0, fp_cost=cost_v),
    )


def train_daily_classifier(
    trace: Trace,
    features: FeatureMatrix,
    labels: np.ndarray,
    *,
    cost_v: float = 2.0,
    retrain_period: float = DAY,
    train_window: float | None = None,
    static_model: bool = False,
    rng: np.random.Generator | int | None = None,
) -> DailyTrainingResult:
    """Run the §4.4.3 daily training loop over a full trace.

    Parameters
    ----------
    trace / features / labels:
        The workload, its extracted feature matrix, and ground-truth
        one-time labels under the chosen criterion ``M``.
    cost_v:
        The Table-4 false-positive penalty ``v`` (see
        :func:`repro.ml.cost_sensitive.select_cost_v`).
    retrain_period:
        Seconds between retrains, the first at :data:`RETRAIN_HOUR`.  The
        paper's offline scheme retrains daily (the default); smaller periods
        approximate the "incrementally updating … in a real-time manner"
        alternative of §4.4.3.
    train_window:
        Seconds of history per training set (default: one ``retrain_period``,
        i.e. the paper's previous-24-hours rule), thinned to
        :data:`SAMPLES_PER_MINUTE`.
    static_model:
        Train only the first model and reuse it for all later days — the
        §4.4.3 ablation showing accuracy decay without refresh.

    Every retrain fits the paper's cost-sensitive CART
    (:func:`paper_classifier`: :data:`MAX_SPLITS` splits, Table-4 cost
    matrix) on the paper's final five features (:data:`PAPER_FEATURE_NAMES`).

    Returns per-access predictions: the first (model-less) segment predicts
    "re-accessed" for everything, i.e. classic always-admit behaviour, and
    so does a segment whose training window has fewer than
    :data:`MIN_TRAIN_SAMPLES` rows or a single class.
    """
    if retrain_period <= 0:
        raise ValueError("retrain_period must be positive")
    if train_window is not None and train_window <= 0:
        raise ValueError("train_window must be positive")
    if cost_v <= 0:
        raise ValueError("cost_v must be positive")
    window = train_window if train_window is not None else retrain_period
    labels = np.asarray(labels)
    if labels.shape[0] != trace.n_accesses or features.X.shape[0] != trace.n_accesses:
        raise ValueError("features/labels must cover every access")
    rng = np.random.default_rng(rng)

    fm = features.select(PAPER_FEATURE_NAMES)
    X = fm.X
    ts = trace.timestamps

    # Segment boundaries: first retrain at RETRAIN_HOUR o'clock, then every
    # retrain_period seconds.
    first = RETRAIN_HOUR * 3600.0
    boundaries = np.arange(first, trace.duration, retrain_period)
    edges = np.r_[0.0, boundaries, trace.duration]
    edges = np.unique(edges)  # guard against first == 0 duplicating an edge

    predictions = np.zeros(trace.n_accesses, dtype=np.int64)
    result = DailyTrainingResult(predictions=predictions, feature_names=fm.names)

    reusable_model = None
    for seg in range(len(edges) - 1):
        lo, hi = np.searchsorted(ts, [edges[seg], edges[seg + 1]])
        seg_slice = slice(lo, hi)
        n_eval = hi - lo
        model = None
        trained = False

        if seg > 0:  # segment 0 has no history to train on
            if static_model and reusable_model is not None:
                model, trained = reusable_model, True
            else:
                t_train = edges[seg]
                w_lo, w_hi = np.searchsorted(
                    ts, [max(0.0, t_train - window), t_train]
                )
                if w_hi - w_lo >= MIN_TRAIN_SAMPLES:
                    window_idx = np.arange(w_lo, w_hi)
                    picked = window_idx[
                        sample_per_minute(ts[window_idx], SAMPLES_PER_MINUTE, rng)
                    ]
                    y_train = labels[picked]
                    if np.unique(y_train).shape[0] == 2:
                        seed = int(rng.integers(0, 2**63 - 1))
                        model = paper_classifier(cost_v, MAX_SPLITS, seed)
                        model.fit(X[picked], y_train)
                        trained = True
                        if static_model and reusable_model is None:
                            reusable_model = model

        if trained and n_eval > 0:
            predictions[seg_slice] = model.predict(X[seg_slice])

        metrics = {
            "segment": seg,
            "t_start": float(edges[seg]),
            "t_end": float(edges[seg + 1]),
            "n_eval": int(n_eval),
            "trained": trained,
            "precision": 0.0,
            "recall": 0.0,
            "accuracy": 0.0,
        }
        if trained and n_eval > 0:
            y_true = labels[seg_slice]
            y_pred = predictions[seg_slice]
            metrics["precision"] = precision_score(y_true, y_pred, pos_label=ONE_TIME)
            metrics["recall"] = recall_score(y_true, y_pred, pos_label=ONE_TIME)
            metrics["accuracy"] = accuracy_score(y_true, y_pred)
        result.daily_metrics.append(metrics)
        result.models.append(model)

    return result
