#!/usr/bin/env python
"""Domain scenario 5 — from cache admission to flash lifetime.

Runs the same workload through the cache simulator *with the SSD device
model attached*, comparing the traditional cache against the paper's
classifier admission at the flash level: write amplification, garbage
collection, wear spread, and projected device lifetime.

Run:  python examples/ssd_lifetime_study.py
"""

from repro.cache import make_policy
from repro.core.admission import AlwaysAdmit, ClassifierAdmission, OracleAdmission
from repro.core.criteria import solve_criteria
from repro.core.features import extract_features
from repro.core.labeling import labels_from_distances, reaccess_distances
from repro.core.training import train_daily_classifier
from repro.ssd import simulate_on_ssd
from repro.ssd.endurance import write_density_ratio
from repro.trace import WorkloadConfig, generate_trace


def main(n_objects: int = 20_000) -> None:
    trace = generate_trace(WorkloadConfig(n_objects=n_objects, seed=23))
    capacity = max(1, trace.footprint_bytes // 60)

    # Build the classifier admission once (criterion → labels → training),
    # both the criterion and the labels from one reaccess-distance pass.
    distances = reaccess_distances(trace.object_ids)
    criteria = solve_criteria(distances, capacity, trace.mean_object_size())
    labels = labels_from_distances(distances, criteria.m_threshold)
    training = train_daily_classifier(
        trace, extract_features(trace), labels, rng=0
    )

    configs = {
        "original": AlwaysAdmit(),
        "proposal": ClassifierAdmission.from_criteria(
            training.predictions, criteria
        ),
        "ideal": OracleAdmission(labels),
    }

    print(f"cache capacity: {capacity / 2**20:.1f} MiB, "
          f"criterion M = {criteria.m_threshold:,.0f}\n")
    reports = {}
    for name, admission in configs.items():
        report = simulate_on_ssd(
            trace, make_policy("lru", capacity), admission=admission,
            policy_name="lru",
        )
        reports[name] = report
        print(f"=== {name} ===")
        print(report.summary())
        print()

    base = reports["original"].lifetime
    for name in ("proposal", "ideal"):
        print(f"lifetime extension ({name} vs original): "
              f"{reports[name].lifetime.ratio_vs(base):.2f}×")

    print("\n§1 write-density sanity check (1 TB cache, 20 TB backend):")
    frac = (
        reports["proposal"].simulation.stats.bytes_written
        / reports["original"].simulation.stats.bytes_written
    )
    print(f"  unfiltered : {write_density_ratio(1e12, 20e12, 1.0):.0f}:1")
    print(f"  filtered   : {write_density_ratio(1e12, 20e12, frac):.1f}:1")


if __name__ == "__main__":
    main()
