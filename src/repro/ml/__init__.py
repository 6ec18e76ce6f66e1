"""From-scratch machine-learning substrate used by the caching classifier.

The paper compares seven mainstream classifiers (Table 1) and finally selects
a CART decision tree with cost-sensitive learning.  scikit-learn is not a
dependency of this reproduction: every estimator here is implemented directly
on NumPy, following the textbook formulations the paper cites (Alpaydin,
*Introduction to Machine Learning*; Breiman et al., *Classification and
Regression Trees*; Elkan, *The Foundations of Cost-Sensitive Learning*).
A from-scratch gradient-boosting classifier (:mod:`repro.ml.gbdt`) is
included as the post-2018 baseline the learned-cache literature moved to.
Every tree-built model here — CART, regressor, forest, AdaBoost, the GBDT's
rounds — is :mod:`repro.ml.tree`'s one grower with one of two split searches.

Public API
----------
Estimators follow a small sklearn-like protocol: ``fit(X, y[, sample_weight])``,
``predict(X)`` and, where meaningful, ``predict_proba(X)``.  All estimators
accept 2-D float arrays and binary or multiclass integer labels.
"""

from repro.ml.base import BaseEstimator, check_X_y, check_array
from repro.ml.metrics import (
    accuracy_score,
    auc,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
    roc_auc_score,
    roc_curve,
    classification_report,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.forest import RandomForestClassifier
from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.naive_bayes import GaussianNB, CategoricalNB
from repro.ml.knn import KNeighborsClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.neural_net import MLPClassifier
from repro.ml.gbdt import GradientBoostingClassifier
from repro.ml.cost_sensitive import CostMatrix, CostSensitiveClassifier
from repro.ml.fastpath import (
    CompiledPredictor,
    compile_tree_arrays,
    fast_predictor,
)
from repro.ml.feature_selection import (
    information_gain,
    greedy_forward_selection,
)
from repro.ml.model_selection import (
    GridSearchCV,
    KFold,
    StratifiedKFold,
    cross_val_score,
    cross_validate_metrics,
    train_test_split,
)
from repro.ml.preprocessing import (
    LabelEncoder,
    StandardScaler,
    UniformDiscretizer,
)
from repro.ml.flashiness import LearnedFlashiness, learned_flashiness_for_trace

__all__ = [
    "LearnedFlashiness",
    "learned_flashiness_for_trace",
    "BaseEstimator",
    "check_X_y",
    "check_array",
    "accuracy_score",
    "auc",
    "confusion_matrix",
    "f1_score",
    "precision_score",
    "recall_score",
    "roc_auc_score",
    "roc_curve",
    "classification_report",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "AdaBoostClassifier",
    "GaussianNB",
    "CategoricalNB",
    "KNeighborsClassifier",
    "LogisticRegression",
    "MLPClassifier",
    "GradientBoostingClassifier",
    "CompiledPredictor",
    "compile_tree_arrays",
    "fast_predictor",
    "CostMatrix",
    "CostSensitiveClassifier",
    "information_gain",
    "greedy_forward_selection",
    "GridSearchCV",
    "KFold",
    "StratifiedKFold",
    "cross_val_score",
    "cross_validate_metrics",
    "train_test_split",
    "LabelEncoder",
    "StandardScaler",
    "UniformDiscretizer",
]
