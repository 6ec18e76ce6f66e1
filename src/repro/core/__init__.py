"""The paper's contribution: the one-time-access-exclusion caching system.

Components (mapped to paper sections):

* :mod:`repro.core.criteria`   — the reaccess-distance threshold ``M`` and
  its iterative fixed point (§4.3, Eqs. 1–2).
* :mod:`repro.core.labeling`   — oracle labels: is each access one-time
  under a given ``M``?
* :mod:`repro.core.features`   — the §3.2 feature pipeline.
* :mod:`repro.core.history_table` — the FIFO rectification table (§4.4.2).
* :mod:`repro.core.admission`  — admission policies: always/never, the
  Ideal oracle, and the classifier + history-table system (Fig. 4).
* :mod:`repro.core.training`   — cost-sensitive CART training with daily
  model refresh (§4.4.1/§4.4.3).
* :mod:`repro.core.latency`    — the Eq. 3–6 response-time model (§5.3.5).
* :mod:`repro.core.pipeline`   — end-to-end experiment driver producing the
  Original / Proposal / Ideal / Belady comparison of Figs. 6–10.
"""

from repro.core.criteria import Criteria, estimate_hit_rate, solve_criteria
from repro.core.labeling import labels_from_distances, one_time_labels, reaccess_distances
from repro.core.features import (
    FEATURE_NAMES,
    PAPER_FEATURE_NAMES,
    FeatureMatrix,
    extract_features,
)
from repro.core.history_table import HistoryTable
from repro.core.admission import (
    AlwaysAdmit,
    ClassifierAdmission,
    NeverAdmit,
    OracleAdmission,
)
from repro.core.adaptive import AdaptiveThresholdAdmission
from repro.core.monitoring import WindowedQuality, evaluate_admission_decisions
from repro.core.online import OnlineClassifierAdmission, OnlineFeatureTracker
from repro.core.training import DailyTrainingResult, paper_classifier, train_daily_classifier
from repro.core.latency import LatencyModel
from repro.core.pipeline import CapacityBlock, ExperimentResult, capacity_block, run_experiment

__all__ = [
    "Criteria",
    "estimate_hit_rate",
    "solve_criteria",
    "one_time_labels",
    "labels_from_distances",
    "reaccess_distances",
    "FEATURE_NAMES",
    "PAPER_FEATURE_NAMES",
    "FeatureMatrix",
    "extract_features",
    "HistoryTable",
    "AlwaysAdmit",
    "ClassifierAdmission",
    "NeverAdmit",
    "OracleAdmission",
    "AdaptiveThresholdAdmission",
    "WindowedQuality",
    "evaluate_admission_decisions",
    "OnlineClassifierAdmission",
    "OnlineFeatureTracker",
    "DailyTrainingResult",
    "paper_classifier",
    "train_daily_classifier",
    "LatencyModel",
    "CapacityBlock",
    "ExperimentResult",
    "capacity_block",
    "run_experiment",
]
