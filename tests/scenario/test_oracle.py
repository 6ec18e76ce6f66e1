"""The oracle comparator counts exactly what ``simulate()`` counts.

Regression for a drift between two hand-written request loops: the
oracle's own copy only counted a write when ``not result.hit``, so a
Flashield-style hit-path promotion (``AccessResult(hit=True,
inserted=True)``) vanished and every ``policy="staging"`` oracle reported
zero writes.  ``run_oracle`` now drives the simulator's loop, so its summed
phases must equal one ``simulate()`` over the same aggregate-capacity
stack — for miss-path and hit-path writers alike.
"""

import pytest

from repro.cache.simulator import make_policy, simulate
from repro.core.labeling import one_time_labels
from repro.scenario import ScenarioSpec
from repro.scenario.oracle import build_admission, node_capacity_bytes, run_oracle
from repro.trace import WorkloadConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadConfig(n_objects=3000, days=3.0, seed=9))


@pytest.mark.parametrize("admission", ["none", "oracle"])
@pytest.mark.parametrize("policy", ["lru", "hierarchy", "staging"])
def test_summed_phases_equal_simulate(trace, policy, admission):
    n = trace.n_accesses
    spec = ScenarioSpec(nodes=2, requests=n, policy=policy, admission=admission)
    labels = one_time_labels(trace.object_ids, spec.m_window)
    boundaries = [0, n // 5, n // 2, n]

    phases = run_oracle(spec, trace, labels, boundaries, admission_seed=0)

    ref = simulate(
        trace,
        make_policy(policy, spec.nodes * node_capacity_bytes(spec, trace)),
        admission=build_admission(admission, labels, spec, 0),
    ).stats
    assert [p["requests"] for p in phases] == [n // 5, n // 2 - n // 5, n - n // 2]
    assert sum(p["hits"] for p in phases) == ref.hits
    assert sum(p["writes"] for p in phases) == ref.files_written
    if policy == "staging":
        # Every staging write is a hit-path promotion: the counter the old
        # loop dropped.  Guard the test itself against going vacuous.
        assert ref.files_written > 0
