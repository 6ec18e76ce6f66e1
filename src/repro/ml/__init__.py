"""From-scratch machine-learning substrate used by the caching classifier.

The paper compares seven mainstream classifiers (Table 1) and finally selects
a CART decision tree with cost-sensitive learning.  scikit-learn is not a
dependency of this reproduction: every estimator here is implemented directly
on NumPy, following the textbook formulations the paper cites (Alpaydin,
*Introduction to Machine Learning*; Breiman et al., *Classification and
Regression Trees*; Elkan, *The Foundations of Cost-Sensitive Learning*).
Every tree-built model here — CART, regressor, forest, AdaBoost — is
:mod:`repro.ml.tree`'s one grower with one of two split searches.

Public API
----------
Estimators follow a small sklearn-like protocol: ``fit(X, y[, sample_weight])``,
``predict(X)`` and, where meaningful, ``predict_proba(X)``.  All estimators
accept 2-D float arrays and binary or multiclass integer labels.

The package holds what the reproduction's programs call: the Table-1
estimators with their metrics and cross-validation, feature selection,
preprocessing, the cost-sensitive wrapper and the compiled fast path.
Nothing here exists for tests alone (``tests/test_census.py`` checks).
"""

from repro.ml.base import BaseEstimator, check_X_y, check_array
from repro.ml.metrics import (
    accuracy_score,
    auc,
    precision_score,
    recall_score,
    roc_auc_score,
    roc_curve,
    classification_report,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.forest import RandomForestClassifier
from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.naive_bayes import GaussianNB
from repro.ml.knn import KNeighborsClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.neural_net import MLPClassifier
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
)
from repro.ml.preprocessing import (
    StandardScaler,
    UniformDiscretizer,
)

__all__ = [
    "BaseEstimator",
    "check_X_y",
    "check_array",
    "accuracy_score",
    "auc",
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
    "KNeighborsClassifier",
    "LogisticRegression",
    "MLPClassifier",
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
    "StandardScaler",
    "UniformDiscretizer",
]
