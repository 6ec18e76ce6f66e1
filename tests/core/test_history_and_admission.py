"""Tests for the history table (§4.4.2) and admission policies (Fig. 4)."""

import numpy as np
import pytest

from repro.core.admission import (
    AlwaysAdmit,
    ClassifierAdmission,
    NeverAdmit,
    NoisyOracleAdmission,
    OracleAdmission,
)
from repro.core.history_table import HistoryTable
from repro.core.labeling import ONE_TIME, REUSED


class TestHistoryTable:
    def test_record_and_rectify_within_window(self):
        t = HistoryTable(capacity=10)
        assert t.overrules(42, index=100, m_threshold=100) is False  # tabled
        assert 42 in t
        assert t.overrules(42, index=150, m_threshold=100) is True
        assert 42 not in t  # forgotten after rectification
        assert t.rectifications == 1

    def test_rectify_outside_window_fails(self):
        t = HistoryTable(capacity=10)
        t.overrules(42, index=100, m_threshold=100)
        assert t.overrules(42, index=300, m_threshold=100) is False
        assert 42 in t and len(t) == 1  # re-tabled, not duplicated
        assert t.rectifications == 0
        # ... at the new index: 350 is within M of 300, not of 100.
        assert t.overrules(42, index=350, m_threshold=100) is True

    def test_unknown_object_not_rectified(self):
        t = HistoryTable(capacity=10)
        assert t.overrules(1, 5, 100) is False
        assert 1 in t and t.rectifications == 0

    def test_overrules_is_rectify_else_table_the_verdict(self):
        """The whole §4.4.2 rule: first one-time verdict is tabled and
        stands; a renewed miss inside the window overrules it (and forgets
        the entry); one outside the window re-tables at the new index."""
        t = HistoryTable(capacity=10)
        assert t.overrules(42, index=100, m_threshold=100) is False
        assert 42 in t
        assert t.overrules(42, index=150, m_threshold=100) is True
        assert 42 not in t and t.rectifications == 1
        assert t.overrules(42, index=200, m_threshold=100) is False
        assert t.overrules(42, index=400, m_threshold=100) is False  # too late
        assert t.overrules(42, index=450, m_threshold=100) is True   # vs 400

    def test_fifo_eviction(self):
        t = HistoryTable(capacity=3)
        for oid in (1, 2, 3):
            t.overrules(oid, oid, 100)
        t.overrules(4, 4, 100)  # evicts 1 (oldest insertion)
        assert 1 not in t
        assert 2 in t and 3 in t and 4 in t
        assert len(t) == 3

    def test_refresh_keeps_fifo_age(self):
        t = HistoryTable(capacity=3)
        for oid in (1, 2, 3):
            t.overrules(oid, oid, 5)
        # Outside the window: refresh the verdict, but 1 keeps its FIFO slot.
        assert t.overrules(1, 10, 5) is False
        t.overrules(4, 11, 5)  # still evicts 1
        assert 1 not in t
        assert 2 in t and 3 in t and 4 in t

    def test_refresh_updates_index(self):
        t = HistoryTable(capacity=5)
        t.overrules(7, index=0, m_threshold=450)
        assert t.overrules(7, index=500, m_threshold=450) is False
        # Against the refreshed index, a gap of 400 < M=450 rectifies.
        assert t.overrules(7, index=900, m_threshold=450)

    def test_paper_capacity_rule(self):
        cap = HistoryTable.paper_capacity(
            m_threshold=10_000, hit_rate=0.5, one_time_share=0.4
        )
        assert cap == int(10_000 * 0.5 * 0.4 * 0.05)

    def test_paper_capacity_never_zero(self):
        assert HistoryTable.paper_capacity(1, 0.99, 0.01) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            HistoryTable(0)

    def test_clear(self):
        t = HistoryTable(5)
        t.overrules(1, 0, 10)
        assert t.overrules(1, 1, 10) and t.rectifications == 1
        t.overrules(2, 2, 10)
        t.clear()
        assert len(t) == 0 and t.rectifications == 0


class TestSimpleAdmissions:
    def test_always(self):
        a = AlwaysAdmit()
        assert a.should_admit(0, 1, 100)

    def test_never(self):
        a = NeverAdmit()
        assert not a.should_admit(0, 1, 100)

    def test_oracle_follows_labels(self):
        labels = np.array([ONE_TIME, REUSED, ONE_TIME])
        a = OracleAdmission(labels)
        assert not a.should_admit(0, 9, 1)
        assert a.should_admit(1, 9, 1)
        assert not a.should_admit(2, 9, 1)

    def test_oracle_rejects_2d(self):
        with pytest.raises(ValueError):
            OracleAdmission(np.zeros((2, 2)))


class TestNoisyOracle:
    def test_zero_noise_equals_oracle(self):
        labels = np.array([ONE_TIME, REUSED, ONE_TIME, REUSED] * 20)
        clean = OracleAdmission(labels)
        noisy = NoisyOracleAdmission(labels, fn_rate=0.0, fp_rate=0.0)
        for i in range(labels.shape[0]):
            assert clean.should_admit(i, 0, 1) == noisy.should_admit(i, 0, 1)
        assert noisy.effective_accuracy == 1.0

    def test_error_rates_realised(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 20_000)
        adm = NoisyOracleAdmission(labels, fn_rate=0.2, fp_rate=0.1, rng=1)
        one_time = labels == ONE_TIME
        denied = np.array(
            [not adm.should_admit(i, 0, 1) for i in range(labels.shape[0])]
        )
        fn = np.mean(~denied[one_time])   # one-time wrongly admitted
        fp = np.mean(denied[~one_time])   # reused wrongly denied
        assert fn == pytest.approx(0.2, abs=0.02)
        assert fp == pytest.approx(0.1, abs=0.02)

    def test_effective_accuracy(self):
        labels = np.zeros(10_000, dtype=int)
        adm = NoisyOracleAdmission(labels, fp_rate=0.25, rng=2)
        assert adm.effective_accuracy == pytest.approx(0.75, abs=0.02)

    def test_deterministic_given_rng(self):
        labels = np.random.default_rng(3).integers(0, 2, 100)
        a = NoisyOracleAdmission(labels, fn_rate=0.3, fp_rate=0.3, rng=7)
        b = NoisyOracleAdmission(labels, fn_rate=0.3, fp_rate=0.3, rng=7)
        np.testing.assert_array_equal(a._deny, b._deny)

    def test_invalid(self):
        with pytest.raises(ValueError):
            NoisyOracleAdmission(np.zeros(3), fn_rate=1.5)
        with pytest.raises(ValueError):
            NoisyOracleAdmission(np.zeros((2, 2)))


class TestClassifierAdmission:
    def test_predicted_reuse_admitted(self):
        adm = ClassifierAdmission(np.array([0, 1]), m_threshold=100)
        assert adm.should_admit(0, 5, 1)
        assert adm.denied == 0

    def test_predicted_one_time_denied_and_tabled(self):
        adm = ClassifierAdmission(np.array([1, 1]), m_threshold=100)
        assert not adm.should_admit(0, 5, 1)
        assert adm.denied == 1
        assert 5 in adm.history

    def test_history_rectifies_second_miss(self):
        """A fast come-back overrules the one-time verdict (§4.4.2)."""
        adm = ClassifierAdmission(np.ones(200, dtype=int), m_threshold=100)
        assert not adm.should_admit(0, 5, 1)   # first miss: denied, tabled
        assert adm.should_admit(50, 5, 1)      # within M: rectified → admit
        assert adm.rectified_admits == 1
        assert 5 not in adm.history

    def test_slow_comeback_not_rectified(self):
        adm = ClassifierAdmission(np.ones(600, dtype=int), m_threshold=100)
        adm.should_admit(0, 5, 1)
        assert not adm.should_admit(500, 5, 1)  # beyond M: denied again

    def test_from_criteria_sizes_table(self):
        from repro.core.criteria import Criteria

        crit = Criteria(
            m_threshold=20_000,
            one_time_share=0.3,
            hit_rate=0.5,
            cache_bytes=1,
            mean_object_size=1.0,
            iterations=3,
        )
        adm = ClassifierAdmission.from_criteria(np.zeros(3, dtype=int), crit)
        assert adm.history.capacity == HistoryTable.paper_capacity(20_000, 0.5, 0.3)

    def test_reset_clears_state(self):
        adm = ClassifierAdmission(np.ones(5, dtype=int), m_threshold=10)
        adm.should_admit(0, 1, 1)
        adm.reset()
        assert adm.denied == 0
        assert len(adm.history) == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ClassifierAdmission(np.ones((2, 2)), 10)
        with pytest.raises(ValueError):
            ClassifierAdmission(np.ones(2), 0)

    def test_boolean_and_int_predictions_equivalent(self):
        ints = ClassifierAdmission(np.array([1, 0, 1]), 10)
        bools = ClassifierAdmission(np.array([True, False, True]), 10)
        for i in range(3):
            assert ints.should_admit(i, 100 + i, 1) == bools.should_admit(
                i, 200 + i, 1
            )
