"""The grid's process fan-out: same grid under every start method.

* **Differential** — ``GridRunner.precompute`` produces bit-identical grid
  results across inline and every start method the platform offers, the
  admission-filtered Proposal/Ideal configurations included (they are part
  of every capacity block), and the inline grid itself matches a digest
  recorded before the shared-memory layer was removed.
* **What a worker is sent** — a pickled trace leaves its memoised
  ``SegmentPlan`` behind, so the once-per-worker payload is the arrays and
  nothing else (a gate in bytes, not clocks).
* **One point** — ``run_experiment`` is one capacity block of one policy:
  its output matches a digest recorded before it became one, and a
  one-policy grid point equals it for every policy, whatever the case of
  the policy name.
* **Failures surface in the parent** — an unknown policy is rejected by the
  constructor before any process starts; a worker's exception reaches the
  caller as itself, a killed worker as ``BrokenProcessPool``, and neither
  leaves a worker process behind.
"""

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.segments import SegmentPlan
from repro.cli import main
from repro.core.features import extract_features
from repro.core.labeling import reaccess_distances
from repro.core.pipeline import run_experiment
from repro.experiments import (
    CONFIGS,
    POLICIES,
    GridRunner,
    resolve_start_method,
)
from repro.experiments import grid as grid_mod
from repro.trace import WorkloadConfig, generate_trace

MP_METHODS = multiprocessing.get_all_start_methods()
#: One non-fork method, preferring spawn (the portable worst case).
NON_FORK = next((m for m in ("spawn", "forkserver") if m in MP_METHODS), None)

_GRID_KW = dict(fractions=[0.02, 0.05], policies=("lru", "lirs"))

#: sha256 over every counter of every (policy, fraction, config) point of
#: the inline grid below, recorded at the parent of the PR that replaced the
#: shared-memory fan-out with pool initargs (fork, spawn and forkserver all
#: produced it there too).
PARENT_DIGEST = (
    "1e2ccb1537a7c2641f844fa00b32fa021507ef11cd6d73c6da487cf3870fc5ab"
)

#: sha256 over ``run_experiment`` at every (policy, fraction) of
#: ``_GRID_KW`` (so the cost boundary is straddled): every configuration's
#: counters, the criterion, ``v``, both Eq. 3–6 latencies, the daily
#: predictions and quality, and ``summary()``.  Recorded at the parent of
#: the PR that made ``run_experiment`` one capacity block of the grid.
PIPELINE_DIGEST = (
    "61015cee76ad829a93a00f7674e9364171b55a4e3abea3be37d3d5eff593d937"
)


def _make_trace(seed=33, n_objects=1500, days=2.0):
    return generate_trace(
        WorkloadConfig(n_objects=n_objects, days=days, seed=seed)
    )


def _grid_fingerprint(runner):
    """Every stat counter of every (policy, fraction, config) point."""
    out = {}
    for policy in runner.policies:
        for fraction in runner.fractions:
            point = runner.point(policy, fraction)
            for config in CONFIGS:
                out[(policy, fraction, config)] = getattr(point, config).stats
    return out


def _grid_digest(runner):
    h = hashlib.sha256()
    for key, stats in _grid_fingerprint(runner).items():
        h.update(repr((*key, dataclasses.astuple(stats))).encode())
    return h.hexdigest()


def _pipeline_digest(trace):
    h = hashlib.sha256()
    for policy in _GRID_KW["policies"]:
        for fraction in _GRID_KW["fractions"]:
            r = run_experiment(trace, policy=policy, capacity_fraction=fraction)
            for config in CONFIGS:
                stats = getattr(r, config).stats
                h.update(repr((config, dataclasses.astuple(stats))).encode())
            h.update(repr((r.criteria, r.cost_v, r.latency_original,
                           r.latency_proposal, r.training.overall,
                           r.summary())).encode())
            h.update(r.training.predictions.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def trace():
    return _make_trace()


@pytest.fixture(scope="module")
def inline_grid(trace):
    runner = GridRunner(trace, **_GRID_KW)
    runner.precompute(start_method="inline")
    return runner


@pytest.fixture()
def no_workers_left():
    """Assert the test body leaves no child process of this one running."""
    yield
    assert multiprocessing.active_children() == []


class TestCrossStartMethod:
    def test_inline_grid_matches_parent_digest(self, inline_grid):
        assert _grid_digest(inline_grid) == PARENT_DIGEST

    def test_run_experiment_matches_parent_digest(self, trace):
        assert _pipeline_digest(trace) == PIPELINE_DIGEST

    @pytest.mark.parametrize("method", MP_METHODS)
    def test_bit_identical_across_methods(self, method, trace, inline_grid,
                                          no_workers_left):
        runner = GridRunner(trace, **_GRID_KW)
        runner.precompute(max_workers=2, start_method=method)
        assert _grid_fingerprint(runner) == _grid_fingerprint(inline_grid)

    @pytest.mark.skipif(NON_FORK is None, reason="only fork available")
    @settings(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**16),
           fraction=st.sampled_from([0.01, 0.03, 0.08]))
    def test_hypothesis_grid_configs(self, seed, fraction):
        trace = _make_trace(seed=seed, n_objects=700, days=1.5)
        kw = dict(fractions=[fraction], policies=("lru", "fifo"))
        inline = GridRunner(trace, **kw)
        inline.precompute(start_method="inline")
        parallel = GridRunner(trace, **kw)
        parallel.precompute(max_workers=2, start_method=NON_FORK)
        assert _grid_fingerprint(parallel) == _grid_fingerprint(inline)

    def test_resolve_start_method(self):
        assert resolve_start_method(None) is None
        for method in ("inline", *MP_METHODS):
            assert resolve_start_method(method) == method
        with pytest.raises(ValueError, match="choose from"):
            resolve_start_method("mystery-method")


class TestWorkerPayload:
    def test_trace_pickle_excludes_cached_plan(self, trace):
        plan = SegmentPlan.for_trace(trace)
        clone = pickle.loads(pickle.dumps(trace))
        assert getattr(clone, "_segment_plan", None) is None
        rebuilt = SegmentPlan.for_trace(clone)
        assert rebuilt is not plan
        np.testing.assert_array_equal(
            rebuilt._demand,
            plan._demand,
        )

    def test_initargs_pickle_to_the_arrays_and_no_more(self, trace):
        # With a plan built and its per-capacity batch lists memoised (what
        # the parent holds after any simulate()), what a spawned worker is
        # sent is still the arrays: 5 % covers pickle's framing.
        plan = SegmentPlan.for_trace(trace)
        for fraction in _GRID_KW["fractions"]:
            plan.batches(int(fraction * trace.footprint_bytes))
        distances = reaccess_distances(trace.object_ids)
        features = extract_features(trace)
        arrays = [*trace.column_arrays().values(), distances, features.X]
        payload = pickle.dumps((trace, distances, features))
        assert len(payload) <= 1.05 * sum(a.nbytes for a in arrays)


def _kill_self(*_args, **_kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


class _BlockFailed(Exception):
    pass


def _raise_block_failed(*_args, **_kwargs):
    raise _BlockFailed("block failed")


def _unreachable(*_args, **_kwargs):
    raise AssertionError("validation must come first")


class TestFailures:
    def test_unknown_policy_rejected_by_constructor(self, trace, monkeypatch):
        monkeypatch.setattr(grid_mod, "extract_features", _unreachable)
        monkeypatch.setattr(grid_mod, "ProcessPoolExecutor", _unreachable)
        with pytest.raises(ValueError, match="'lur'; choose from"):
            GridRunner(trace, policies=("lru", "lur"))

    def test_cli_rejects_unknown_policy_before_the_trace(self, monkeypatch,
                                                         capsys):
        monkeypatch.setattr("repro.cli._resolve_trace", _unreachable)
        assert main(["grid", "--policies", "lur", "--workers", "2"]) == 2
        assert "'lur'; choose from" in capsys.readouterr().err

    # fork inherits the monkeypatch, so the real precompute path runs right
    # up to the moment its worker fails mid-task.
    @pytest.mark.skipif("fork" not in MP_METHODS, reason="needs fork")
    def test_worker_exception_reaches_caller(self, trace, monkeypatch,
                                             no_workers_left):
        monkeypatch.setattr(grid_mod, "capacity_block", _raise_block_failed)
        runner = GridRunner(trace, fractions=[0.02], policies=("lru",))
        with pytest.raises(_BlockFailed, match="block failed"):
            runner.precompute(max_workers=2, start_method="fork")

    @pytest.mark.skipif("fork" not in MP_METHODS, reason="needs fork")
    def test_sigkilled_worker_breaks_the_pool(self, trace, monkeypatch,
                                              no_workers_left):
        monkeypatch.setattr(grid_mod, "capacity_block", _kill_self)
        runner = GridRunner(trace, **_GRID_KW)
        with pytest.raises(BrokenProcessPool):
            runner.precompute(max_workers=2, start_method="fork")


class TestOneCostBoundary:
    def test_pipeline_and_grid_agree_across_the_boundary(self, inline_grid):
        # The paper's 12 GB boundary is ~2.8 % of the footprint: the two
        # grid capacities sit on either side of it.
        costs = [inline_grid.block(f).cost_v for f in _GRID_KW["fractions"]]
        assert costs == [2.0, 3.0]


def _configs(point):
    return [dataclasses.astuple(getattr(point, c).stats) for c in CONFIGS]


class TestOnePoint:
    @pytest.mark.parametrize("policy", [*POLICIES, "learned"])
    def test_grid_point_is_run_experiment(self, trace, policy):
        grid = GridRunner(trace, fractions=[0.02], policies=(policy,))
        point = grid.point(policy, 0.02)
        result = run_experiment(
            trace, policy=policy, capacity_bytes=grid.capacity_bytes(0.02)
        )
        assert _configs(point) == _configs(result)
        assert point.criteria == result.criteria

    def test_policy_names_are_case_insensitive(self, trace):
        upper = GridRunner(trace, fractions=[0.02], policies=("LIRS",))
        lower = GridRunner(trace, fractions=[0.02], policies=("lirs",))
        assert _configs(upper.point("LIRS", 0.02)) == _configs(
            lower.point("lirs", 0.02)
        )
        assert upper.policies == ("lirs",)

    def test_a_lirs_only_block_trains_once(self, trace):
        block = GridRunner(trace, fractions=[0.02], policies=("lirs",)).block(0.02)
        assert block.training is block.lirs_training
        assert block.labels is block.lirs_labels
