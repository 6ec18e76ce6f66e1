"""Classification metrics used throughout the paper (Tables 1–3).

The paper reports precision, recall, accuracy and AUC for every classifier
(Table 1) and defines them via the confusion matrix (Tables 2–3).  All
functions operate on binary problems with a configurable positive label.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "precision_score",
    "recall_score",
    "accuracy_score",
    "roc_curve",
    "auc",
    "roc_auc_score",
    "classification_report",
]


def _validate_pair(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(
            f"y_true and y_pred must be 1-D of equal length, "
            f"got {y_true.shape} and {y_pred.shape}"
        )
    if y_true.shape[0] == 0:
        raise ValueError("empty label arrays")
    return y_true, y_pred


def _binary_counts(y_true, y_pred, pos_label) -> tuple[int, int, int, int]:
    y_true, y_pred = _validate_pair(y_true, y_pred)
    tp = int(np.sum((y_true == pos_label) & (y_pred == pos_label)))
    fp = int(np.sum((y_true != pos_label) & (y_pred == pos_label)))
    fn = int(np.sum((y_true == pos_label) & (y_pred != pos_label)))
    tn = int(np.sum((y_true != pos_label) & (y_pred != pos_label)))
    return tp, fp, fn, tn


def precision_score(y_true, y_pred, pos_label=1) -> float:
    """P = TP / (TP + FP); 0.0 when nothing is predicted positive."""
    tp, fp, _, _ = _binary_counts(y_true, y_pred, pos_label)
    return tp / (tp + fp) if tp + fp else 0.0


def recall_score(y_true, y_pred, pos_label=1) -> float:
    """R = TP / (TP + FN); 0.0 when there are no positive samples."""
    tp, _, fn, _ = _binary_counts(y_true, y_pred, pos_label)
    return tp / (tp + fn) if tp + fn else 0.0


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of samples classified correctly."""
    y_true, y_pred = _validate_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def roc_curve(y_true, y_score, pos_label=1):
    """ROC points (fpr, tpr, thresholds), thresholds descending.

    Ties in ``y_score`` are collapsed to a single point, matching the
    standard construction; the curve always starts at (0, 0) with an
    effectively ``+inf`` threshold.
    """
    y_true = np.asarray(y_true)
    y_score = np.asarray(y_score, dtype=np.float64)
    if y_true.shape != y_score.shape or y_true.ndim != 1:
        raise ValueError("y_true and y_score must be 1-D of equal length")
    pos = (y_true == pos_label).astype(np.float64)
    n_pos = pos.sum()
    n_neg = pos.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_curve needs both positive and negative samples")

    order = np.argsort(-y_score, kind="stable")
    score_sorted = y_score[order]
    pos_sorted = pos[order]

    # Indices where the score value changes: each distinct score is one point.
    distinct = np.nonzero(np.diff(score_sorted))[0]
    idx = np.concatenate([distinct, [score_sorted.shape[0] - 1]])

    tps = np.cumsum(pos_sorted)[idx]
    fps = (idx + 1) - tps
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    thresholds = np.concatenate([[np.inf], score_sorted[idx]])
    return fpr, tpr, thresholds


def auc(x, y) -> float:
    """Area under a curve given by points (x, y) via the trapezoid rule."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise ValueError("auc needs two 1-D arrays with at least 2 points")
    dx = np.diff(x)
    if (dx < 0).any() and (dx > 0).any():
        raise ValueError("x must be monotonic")
    return float(abs(np.trapezoid(y, x)))


def roc_auc_score(y_true, y_score, pos_label=1) -> float:
    """Area under the ROC curve (equivalently, the rank statistic)."""
    fpr, tpr, _ = roc_curve(y_true, y_score, pos_label)
    return auc(fpr, tpr)


def classification_report(y_true, y_pred, y_score=None, pos_label=1) -> dict:
    """The four Table-1 metrics in one dict (AUC needs ``y_score``)."""
    report = {
        "precision": precision_score(y_true, y_pred, pos_label),
        "recall": recall_score(y_true, y_pred, pos_label),
        "accuracy": accuracy_score(y_true, y_pred),
    }
    if y_score is not None:
        report["auc"] = roc_auc_score(y_true, y_score, pos_label)
    return report
