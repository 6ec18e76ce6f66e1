"""Table 1: performance comparison of seven classifiers.

Paper values (precision / recall / accuracy / AUC):

    Naive Bayes       0.378 / 0.993 / 0.459 / 0.689
    Decision Tree     0.800 / 0.765 / 0.860 / 0.899
    BP NN             0.626 / 0.158 / 0.692 / 0.722
    KNN               0.687 / 0.544 / 0.768 / 0.826
    AdaBoost          0.807 / 0.785 / 0.868 / 0.936
    Random Forest     0.802 / 0.779 / 0.864 / 0.932
    Logistic Reg.     0.893 / 0.174 / 0.721 / 0.835

The *geometry* to reproduce: trees/ensembles lead accuracy and AUC with
balanced precision/recall; logistic regression is high-precision /
low-recall; NB and the shallow NN trail; and 30-tree ensembles buy only
~1 % accuracy over a single tree at ~30× the cost (§3.1.1).
"""

import time

import numpy as np
from common import emit

from repro.core.criteria import solve_criteria
from repro.core.features import PAPER_FEATURE_NAMES, extract_features
from repro.core.labeling import one_time_labels, reaccess_distances
from repro.core.training import sample_per_minute
from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GaussianNB,
    KNeighborsClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    StratifiedKFold,
    cross_validate_metrics,
)

PAPER_ROWS = {
    "Naive Bayes": (0.378, 0.993, 0.459, 0.689),
    "Decision Tree": (0.800, 0.765, 0.860, 0.899),
    "BP NN": (0.626, 0.158, 0.692, 0.722),
    "KNN": (0.687, 0.544, 0.768, 0.826),
    "AdaBoost": (0.807, 0.785, 0.868, 0.936),
    "Random Forest": (0.802, 0.779, 0.864, 0.932),
    "Logistic Regression": (0.893, 0.174, 0.721, 0.835),
}


def _dataset(trace):
    distances = reaccess_distances(trace.object_ids)
    criteria = solve_criteria(
        distances,
        cache_bytes=trace.footprint_bytes // 100,
        mean_object_size=trace.mean_object_size(),
    )
    labels = one_time_labels(trace.object_ids, criteria.m_threshold)
    features = extract_features(trace).select(PAPER_FEATURE_NAMES)
    rng = np.random.default_rng(3)
    day1 = np.nonzero(trace.timestamps < 86400.0)[0]
    picked = day1[sample_per_minute(trace.timestamps[day1], 100, rng)]
    return features.X[picked], labels[picked]


def bench_table1(benchmark, capsys, trace):
    X, y = _dataset(trace)
    cv = StratifiedKFold(5, rng=0)
    candidates = {
        "Naive Bayes": lambda: GaussianNB(),
        "Decision Tree": lambda: DecisionTreeClassifier(max_splits=30, rng=0),
        "BP NN": lambda: MLPClassifier(16, epochs=30, rng=0),
        "KNN": lambda: KNeighborsClassifier(7),
        "AdaBoost": lambda: AdaBoostClassifier(10, rng=0),
        "Random Forest": lambda: RandomForestClassifier(10, max_splits=30, rng=0),
        "Logistic Regression": lambda: LogisticRegression(max_iter=800),
    }

    rows = {}
    times = {}
    for name, make in candidates.items():
        t0 = time.perf_counter()
        rows[name] = cross_validate_metrics(make(), X, y, cv=cv)
        times[name] = time.perf_counter() - t0

    # pytest-benchmark times the paper's chosen configuration: one
    # cross-validated decision tree (the deployed classifier).
    benchmark.pedantic(
        lambda: cross_validate_metrics(
            DecisionTreeClassifier(max_splits=30, rng=0), X, y, cv=cv
        ),
        rounds=2,
        iterations=1,
    )

    lines = [
        "Table 1 — classifier comparison (measured | paper)",
        f"dataset: {X.shape[0]:,} day-1 samples (100/min), "
        f"{100 * y.mean():.1f}% one-time",
        f"{'Algorithm':22s} {'Precision':>17s} {'Recall':>17s} "
        f"{'Accuracy':>17s} {'AUC':>17s} {'cv-time':>8s}",
    ]
    for name, m in rows.items():
        p, r, a, auc = PAPER_ROWS[name]
        lines.append(
            f"{name:22s} {m['precision']:7.3f} | {p:5.3f} "
            f"{m['recall']:7.3f} | {r:5.3f} "
            f"{m['accuracy']:7.3f} | {a:5.3f} "
            f"{m['auc']:7.3f} | {auc:5.3f} {times[name]:7.1f}s"
        )

    # §3.1.1: ensemble vs single tree, accuracy per compute.
    tree_acc = rows["Decision Tree"]["accuracy"]
    rf30 = cross_validate_metrics(
        RandomForestClassifier(30, max_splits=30, rng=0), X, y, cv=cv
    )
    lines.append(
        f"\n§3.1.1: RandomForest(30) accuracy {rf30['accuracy']:.3f} vs single "
        f"tree {tree_acc:.3f} (Δ={rf30['accuracy'] - tree_acc:+.3f}) — the "
        "paper reports ≈+1% for ≈30× compute, hence deploys a single tree"
    )
    emit(capsys, "table1_classifiers", "\n".join(lines))

    # Geometry assertions (who-wins, not absolute values).
    tree = rows["Decision Tree"]
    assert tree["auc"] >= max(rows["Naive Bayes"]["auc"], rows["BP NN"]["auc"])
    assert rows["Logistic Regression"]["precision"] >= tree["precision"] - 0.05
    assert rows["Logistic Regression"]["recall"] < tree["recall"]
    assert abs(rf30["accuracy"] - tree_acc) < 0.05
