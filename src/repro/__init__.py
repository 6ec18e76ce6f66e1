"""repro — reproduction of *Efficient SSD Caching by Avoiding Unnecessary
Writes using Machine Learning* (Wang, Yi, Huang, Cheng, Zhou — ICPP 2018).

The package is organised as three substrates plus the paper's contribution:

``repro.trace``
    Synthetic Tencent QQPhoto workload generator (the proprietary trace is
    replaced by a statistically calibrated synthesis; see DESIGN.md §2).
``repro.ml``
    From-scratch NumPy machine-learning library (CART and the six Table-1
    comparison classifiers, metrics, cost-sensitive learning).
``repro.cache``
    Byte-accurate cache simulator (LRU, FIFO, S3LRU, ARC, LIRS,
    Belady) with a pluggable admission policy.
``repro.core``
    The one-time-access-exclusion system: reaccess-distance criteria,
    feature extraction, the classifier + history-table admission filter,
    daily retraining, and the latency model.

Quickstart
----------
>>> from repro import run_experiment, WorkloadConfig
>>> result = run_experiment(WorkloadConfig(n_objects=5000, seed=7),
...                         policy="lru", capacity_fraction=0.05)
>>> 0.0 <= result.proposal.hit_rate <= 1.0
True
"""

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_LATENCY",
    "ScaledCapacity",
    "paper_equivalent_bytes",
    "ExperimentResult",
    "run_experiment",
    "WorkloadConfig",
    "generate_trace",
    "simulate",
    "make_policy",
    "GridRunner",
    "__version__",
]

# Lazy re-exports (PEP 562): importing `repro` stays cheap, and subpackages
# remain importable in isolation.
_EXPORTS = {
    "DEFAULT_LATENCY": ("repro.config", "DEFAULT_LATENCY"),
    "ScaledCapacity": ("repro.config", "ScaledCapacity"),
    "paper_equivalent_bytes": ("repro.config", "paper_equivalent_bytes"),
    "ExperimentResult": ("repro.core.pipeline", "ExperimentResult"),
    "run_experiment": ("repro.core.pipeline", "run_experiment"),
    "WorkloadConfig": ("repro.trace.generator", "WorkloadConfig"),
    "generate_trace": ("repro.trace.generator", "generate_trace"),
    "simulate": ("repro.cache.simulator", "simulate"),
    "make_policy": ("repro.cache.simulator", "make_policy"),
    "GridRunner": ("repro.experiments.grid", "GridRunner"),
}


def __getattr__(name):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
