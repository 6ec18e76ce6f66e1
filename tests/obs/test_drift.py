"""Drift monitor: exact parity with the offline scorer, alarms, gauges."""

import numpy as np
import pytest

from repro.core.monitoring import evaluate_admission_decisions
from repro.obs.drift import DriftMonitor
from repro.obs.registry import MetricsRegistry


def feed(monitor, oids, denied):
    for i, (oid, d) in enumerate(zip(oids, denied)):
        monitor.observe(i, int(oid), bool(d))


class TestOfflineParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_streaming_equals_batch_scorer(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(200, 2000))
        oids = rng.integers(0, int(rng.integers(5, 200)), size=n)
        denied = rng.random(n) < rng.random()
        m = float(rng.uniform(0.5, 20.0))
        window = int(rng.integers(1, 60))

        ref = evaluate_admission_decisions(oids, denied, m, window_size=window)

        mon = DriftMonitor(m, window_size=window)
        feed(mon, oids, denied)
        mon.finish()
        got = mon.quality(n_total=n)

        np.testing.assert_array_equal(got.n_scored, ref.n_scored)
        np.testing.assert_allclose(got.accuracy, ref.accuracy, equal_nan=True)
        np.testing.assert_allclose(got.precision, ref.precision, equal_nan=True)
        np.testing.assert_allclose(got.recall, ref.recall, equal_nan=True)

    def test_any_partition_into_ranges_scores_alike(self):
        """The node feeds one range per micro-batch: ranges of 1, 5 and 256
        reproduce the offline scorer — and each other's state — exactly."""
        rng = np.random.default_rng(7)
        n, m, window = 3000, 40.0, 250
        oids = rng.integers(0, 300, size=n).tolist()
        denied = (rng.random(n) < 0.4).tolist()
        ref = evaluate_admission_decisions(
            np.array(oids), np.array(denied), m, window_size=window
        )
        states = []
        for size in (1, 5, 256):
            reg = MetricsRegistry()
            fired = []
            mon = DriftMonitor(
                m, window_size=window, alarm_threshold=0.55, registry=reg,
                on_alarm=[lambda _, w, acc: fired.append((w, acc))],
            )
            for lo in range(0, n, size):
                mon.observe_range(lo, oids[lo:lo + size], denied[lo:lo + size])
            streamed = (mon.last_accuracy, mon.worst_accuracy, mon.alarms)
            assert reg.get("repro_matured_verdicts_total").value == mon.matured
            mon.finish()
            got = mon.quality(n_total=n)
            np.testing.assert_array_equal(got.n_scored, ref.n_scored)
            np.testing.assert_array_equal(got.accuracy, ref.accuracy)
            np.testing.assert_array_equal(got.precision, ref.precision)
            np.testing.assert_array_equal(got.recall, ref.recall)
            states.append((
                mon._counts, mon.matured, streamed, fired,
                mon.last_accuracy, mon.worst_accuracy, mon.snapshot(),
            ))
        assert fired and states[0] == states[1] == states[2]

    def test_integral_threshold_boundary(self):
        # Re-access at distance exactly M counts as reused; M+1 is one-time.
        m = 3.0
        oids = [1, 9, 9, 1, 2, 9, 9, 9, 2]
        denied = [True] * len(oids)
        ref = evaluate_admission_decisions(
            np.array(oids), np.array(denied), m, window_size=4
        )
        mon = DriftMonitor(m, window_size=4)
        feed(mon, oids, denied)
        mon.finish()
        got = mon.quality(n_total=len(oids))
        np.testing.assert_allclose(got.accuracy, ref.accuracy, equal_nan=True)


class TestMemoryBound:
    def test_open_entries_bounded_by_object_count(self):
        mon = DriftMonitor(10.0, window_size=1000)
        n_objects = 50
        rng = np.random.default_rng(0)
        for i in range(100_000):
            mon.observe(i, int(rng.integers(0, n_objects)), True)
            assert len(mon._open) <= n_objects
            assert len(mon._pending) <= mon.horizon + 1


class TestAlarm:
    @staticmethod
    def collapse_monitor(**kwargs):
        """600 one-time requests: first 300 denied (right), last 300
        admitted (wrong) — accuracy collapses from 1.0 to 0.0."""
        mon = DriftMonitor(5.0, window_size=100, **kwargs)
        for i in range(600):
            mon.observe(i, i, denied=i < 300)
        mon.finish()
        return mon

    def test_alarm_fires_on_accuracy_collapse(self):
        fired = []
        mon = self.collapse_monitor(
            alarm_threshold=0.5,
            on_alarm=[lambda m, w, acc: fired.append((w, acc))],
        )
        assert mon.alarms == 3
        assert fired == [(3, 0.0), (4, 0.0), (5, 0.0)]
        assert mon.last_alarm == (5, 0.0)
        assert mon.worst_accuracy == 0.0
        assert mon.last_accuracy == 0.0

    def test_no_alarm_without_threshold(self):
        mon = self.collapse_monitor()
        assert mon.alarms == 0
        assert mon.worst_accuracy == 0.0  # scoring still ran

    def test_gauges_and_counters_exported(self):
        reg = MetricsRegistry()
        mon = self.collapse_monitor(alarm_threshold=0.5, registry=reg)
        fam = reg.get("repro_admission_accuracy")
        assert fam.labels(window="0").value == 1.0
        assert fam.labels(window="5").value == 0.0
        assert reg.get("repro_admission_accuracy_last").value == 0.0
        assert reg.get("repro_admission_accuracy_worst").value == 0.0
        assert reg.get("repro_drift_alarms_total").value == 3
        assert reg.get("repro_matured_verdicts_total").value == mon.matured

    def test_alarm_threshold_validated(self):
        with pytest.raises(ValueError):
            DriftMonitor(5.0, alarm_threshold=1.5)
        with pytest.raises(ValueError):
            DriftMonitor(0.0)
        with pytest.raises(ValueError):
            DriftMonitor(5.0, window_size=0)


class TestSnapshotReset:
    def test_snapshot_jsonable(self):
        import json

        mon = TestAlarm.collapse_monitor(alarm_threshold=0.5)
        snap = json.loads(json.dumps(mon.snapshot()))
        assert snap["observed"] == 600
        assert snap["alarms"] == 3
        assert snap["last_alarm"] == {"window": 5, "accuracy": 0.0}
        assert snap["m_threshold"] == 5.0

    def test_reset_clears_state(self):
        mon = TestAlarm.collapse_monitor(alarm_threshold=0.5)
        mon.reset()
        assert mon.matured == 0 and mon.alarms == 0
        assert mon.snapshot()["observed"] == 0
        # Usable again after reset, from position 0.
        mon.observe(0, 1, True)
        assert mon.snapshot()["observed"] == 1
