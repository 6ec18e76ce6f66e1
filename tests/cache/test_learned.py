"""Learned-eviction policy: fallback identity, protection, parity.

The three load-bearing contracts, property-tested on arbitrary request
streams:

* an **untrained** head leaves the policy bit-identical to plain LRU —
  every ``AccessResult``, byte count and eviction sequence matches;
* the sampled ranking **never** evicts an object inside the
  ``protect_recent`` admission window, no matter how dead the head
  judges it;
* the policy declines ``can_batch_hits`` and segmented replay stays
  bit-identical to the per-request loop.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    LearnedCache,
    LRUCache,
    OnlineReuseTrainer,
    eviction_metadata,
)
from repro.cache.simulator import POLICY_REGISTRY, make_policy, simulate
from repro.ml.tree import DecisionTreeRegressor
from repro.trace import WorkloadConfig, generate_trace

request_streams = st.lists(
    st.tuples(
        st.integers(0, 25),    # object id
        st.integers(1, 400),   # size
        st.booleans(),         # admit
    ),
    min_size=1,
    max_size=250,
)


class _DeadOracle:
    """Trainer stub: always ready, judges every candidate maximally dead.

    Forces the learned path on every eviction so the tests below
    exercise the sampled ranking rather than the LRU fallback.
    """

    ready = True
    n_features = 5
    fits = 0
    fit_rows = 0
    fit_seconds = 0.0
    train_mae = 0.0

    def __init__(self):
        self.matured = 0

    @staticmethod
    def predict_one(row):
        return 26.0

    def add(self, row, label):
        self.matured += 1
        return False


class _ProtectionAsserting(LearnedCache):
    """Fails the test the instant a learned pick lands on a protected oid."""

    def _pick_victim(self, t):
        victim, learned = super()._pick_victim(t)
        if learned:
            assert not self.is_protected(victim), (
                f"learned ranking chose protected object {victim}"
            )
        return victim, learned


class TestLRUFallbackIdentity:
    @given(stream=request_streams, capacity=st.integers(100, 2500))
    @settings(max_examples=60, deadline=None)
    def test_untrained_head_is_bit_identical_to_lru(self, stream, capacity):
        # The default trainer needs min_train matured rows before its
        # first fit; these streams stay far below that, so the head never
        # trains and every eviction must take the fallback path.
        learned = LearnedCache(capacity)
        lru = LRUCache(capacity)
        sizes: dict[int, int] = {}
        for oid, size, admit in stream:
            size = sizes.setdefault(oid, size)
            a = learned.access(oid, size, admit=admit)
            b = lru.access(oid, size, admit=admit)
            assert (a.hit, a.inserted, a.evicted) == (b.hit, b.inserted, b.evicted)
            assert learned.used_bytes == lru.used_bytes
            assert len(learned) == len(lru)
        assert learned.learned_evictions == 0
        assert learned.fallback_evictions == learned.decisions

    def test_degraded_head_falls_back_to_lru(self):
        # A fitted head whose training error blew past max_error loses
        # its override: ``ready`` is the confidence gate, not "fitted".
        trainer = OnlineReuseTrainer(
            train_interval=1, min_train=2, buffer_size=64, max_error=6.0
        )
        for i in range(8):
            trainer.add((float(i), 1.0, 2.0, 3.0, 4.0), float(i % 3))
        assert trainer.predict_one is not None
        trainer.train_mae = 100.0
        assert not trainer.ready
        policy = LearnedCache(200, trainer=trainer)
        for oid in range(10):
            policy.access(oid, 50)
        assert policy.learned_evictions == 0


class TestProtectedWindow:
    @given(stream=request_streams, capacity=st.integers(100, 2000))
    @settings(max_examples=60, deadline=None)
    def test_learned_ranking_never_evicts_protected(self, stream, capacity):
        policy = _ProtectionAsserting(
            capacity, trainer=_DeadOracle(), protect_recent=4
        )
        sizes: dict[int, int] = {}
        for oid, size, admit in stream:
            policy.access(oid, sizes.setdefault(oid, size), admit=admit)

    def test_learned_evictions_do_happen_outside_the_window(self):
        # Deterministic companion to the property: with every candidate
        # judged dead and a 2-insertion window, a long scan stream must
        # take the learned path (the property above would pass vacuously
        # if the ranking never fired at all).
        policy = _ProtectionAsserting(
            400, trainer=_DeadOracle(), protect_recent=2
        )
        policy.debug_log = []
        for oid in range(40):
            policy.access(oid, 100)
        assert policy.learned_evictions > 0
        assert any(mode == "learned" for _, mode in policy.debug_log)

    def test_all_candidates_protected_falls_back(self):
        # Window wider than the resident set: the ranking must stand
        # aside and the LRU head pays, counted as a fallback.
        policy = LearnedCache(300, trainer=_DeadOracle(), protect_recent=64)
        for oid in range(12):
            policy.access(oid, 100)
        assert policy.learned_evictions == 0
        assert policy.fallback_evictions == policy.decisions > 0


class TestSegmentParity:
    def test_declines_batched_hits(self):
        # The hit-side transition feeds the training stream, so hits must
        # replay one by one; segmented replay relies on this signal.
        assert LearnedCache(100).can_batch_hits() is False

    def test_segmented_replay_is_bit_identical(self):
        trace = generate_trace(WorkloadConfig(n_objects=1500, seed=3))
        cap = int(0.03 * trace.catalog["size"].sum())
        seg = simulate(trace, make_policy("learned", cap, trace),
                       use_segments=True)
        loop = simulate(trace, make_policy("learned", cap, trace),
                        use_segments=False)
        assert seg.stats == loop.stats


class TestRegistryWiring:
    def test_learned_is_registered(self):
        assert "learned" in POLICY_REGISTRY

    def test_make_policy_threads_catalog_metadata(self):
        trace = generate_trace(WorkloadConfig(n_objects=500, seed=1))
        with_trace = make_policy("learned", 10_000, trace)
        assert with_trace.metadata is not None
        assert len(with_trace.metadata) == 500
        capacity_only = make_policy("learned", 10_000)
        assert capacity_only.metadata is None

    def test_eviction_metadata_shape(self):
        trace = generate_trace(WorkloadConfig(n_objects=300, seed=2))
        md = eviction_metadata(trace)
        assert len(md) == 300
        assert all(len(row) == 4 for row in md)


class TestChurnAttribution:
    def test_learned_victim_readmission_sets_churn_flag(self):
        policy = LearnedCache(200, trainer=_DeadOracle(), protect_recent=0)
        policy.debug_log = []
        policy.access(1, 100)
        policy.access(2, 100)
        policy.access(3, 100)  # forces a learned eviction
        victim, mode = policy.debug_log[0]
        assert mode == "learned"
        result = policy.access(victim, 100)  # re-admit the head's own victim
        assert result.inserted and result.churn
        assert policy.churn_inserts == 1
        # The flag belongs to that one insertion, not to the policy.
        assert not policy.access(99, 100).churn

    def test_fallback_victim_readmission_is_not_churn(self):
        policy = LearnedCache(200)  # untrained: pure LRU evictions
        policy.access(1, 100)
        policy.access(2, 100)
        policy.access(3, 100)  # LRU-evicts 1
        result = policy.access(1, 100)
        assert result.inserted and not result.churn
        assert policy.churn_inserts == 0


class TestTrainerLifecycle:
    def test_interval_refits_and_reset(self):
        trainer = OnlineReuseTrainer(
            train_interval=64, min_train=32, buffer_size=256
        )
        refits = sum(
            trainer.add((float(i % 7), 1.0, 2.0, 3.0, 4.0), float(i % 5))
            for i in range(200)
        )
        assert trainer.fits == refits > 0
        assert trainer.ready
        trainer.reset()
        assert trainer.model is None
        assert not trainer.ready

    def test_timing_probe_reports_decision_cost(self):
        policy = LearnedCache(300, timing=True)
        for oid in range(20):
            policy.access(oid, 100)
        stats = policy.decision_stats()
        assert stats["decisions"] > 0
        assert stats["mean_decision_ns"] is not None
        assert stats["mean_decision_ns"] > 0

    def test_wrong_length_row_is_rejected(self):
        trainer = OnlineReuseTrainer(n_features=5)
        with pytest.raises(ValueError, match="5"):
            trainer.add((1.0,) * 9, 3.0)
        with pytest.raises(ValueError, match="5"):
            trainer.add((1.0,), 3.0)  # would otherwise broadcast silently
        assert trainer.matured == 0

    def test_trainer_width_must_match_the_row_layout(self):
        # Five stream features + four catalog columns = 9-wide rows; the
        # default trainer is 5-wide, and the mismatch must surface where
        # it is made, not as a mis-shaped fit a thousand requests later.
        trace = generate_trace(WorkloadConfig(n_objects=200, seed=2))
        md = eviction_metadata(trace)
        with pytest.raises(ValueError, match="9"):
            LearnedCache(10_000, metadata=md, trainer=OnlineReuseTrainer())
        with pytest.raises(ValueError, match="9"):
            LearnedCache(10_000, trainer=OnlineReuseTrainer(n_features=9))
        LearnedCache(10_000, metadata=md, trainer=OnlineReuseTrainer(n_features=9))

    def test_fit_sees_newest_window_oldest_first_across_trims(self, monkeypatch):
        # The row order handed to fit is part of the bit-identity contract
        # (bincount sums in input order), so pin it across several trims
        # of the preallocated row array.
        seen = []
        fit = DecisionTreeRegressor.fit

        def recording_fit(self, X, y, sample_weight=None):
            seen.append((np.array(X), np.array(y)))
            return fit(self, X, y, sample_weight)

        monkeypatch.setattr(DecisionTreeRegressor, "fit", recording_fit)
        window = 8
        trainer = OnlineReuseTrainer(
            train_interval=1, min_train=2, buffer_size=window, min_samples_leaf=1
        )
        for i in range(5 * window + 3):
            refit = trainer.add((float(i), 1.0, 2.0, 3.0, float(-i)), float(i))
            assert refit == (i >= 1)
            if refit:
                X, y = seen[-1]
                newest = np.arange(max(0, i + 1 - window), i + 1, dtype=np.float64)
                assert np.array_equal(X[:, 0], newest)
                assert np.array_equal(X[:, 4], -newest)
                assert np.array_equal(y, newest)
        assert trainer.fits == len(seen)
        assert trainer.fit_rows == sum(len(y) for _, y in seen)


class _HashingTrainer(OnlineReuseTrainer):
    """Folds every refit's tree arrays into one sha256.

    Split features, thresholds and children are hashed bit for bit.  Leaf
    values are rounded to 1e-6 first: they come from a BLAS ``ddot``,
    whose summation order follows the CPU kernel and thread count
    (observed: ``OPENBLAS_NUM_THREADS=1`` moves the last bits of 13k-row
    leaf means), and a pinned constant must not depend on the host.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sha = hashlib.sha256()

    def _fit(self):
        super()._fit()
        m = self.model
        for a in (m.feature_, m.threshold_, m.children_left_,
                  m.children_right_, np.round(m.value_, 6)):
            self.sha.update(np.ascontiguousarray(a).tobytes())


class TestPinnedReplay:
    def test_decisions_and_every_refit_tree_are_unchanged(self):
        # Recorded at fc8dfdb, before the one-pass split search and the
        # row array replaced the per-feature loop and the list of tuples:
        # eleven refits (two buffer trims) on a metadata trace, every tree
        # array of every refit and every decision counter.  A change that
        # moves this fingerprint changes eviction decisions — it is not a
        # refactor of the trainer.
        trace = generate_trace(WorkloadConfig(n_objects=1500, seed=3))
        cap = int(0.03 * trace.catalog["size"].sum())
        trainer = _HashingTrainer(
            n_features=9, train_interval=400, buffer_size=1000, min_train=256
        )
        policy = LearnedCache(
            cap, metadata=eviction_metadata(trace), trainer=trainer
        )
        result = simulate(trace, policy)
        d = policy.decision_stats()
        assert (
            result.stats.hits,
            d["learned_evictions"],
            d["fallback_evictions"],
            d["protected_skips"],
            d["churn_inserts"],
            d["fits"],
        ) == (3851, 1320, 716, 2702, 341, 11)
        assert d["train_mae"] == pytest.approx(5.0056229203297775, rel=1e-12)
        assert trainer.sha.hexdigest() == (
            "574526bcd8f77be41c0fbb81d7d98625d707fc7a66c9ea93ae47997aff01430b"
        )
        assert d["matured_samples"] == 4788
        # Refit attribution: always on, two clock reads per refit.
        assert d["fit_rows"] == 400 + 800 + 9 * 1000
        assert d["fit_seconds"] > 0
