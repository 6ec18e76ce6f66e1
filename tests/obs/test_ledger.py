"""WriteLedger unit tests: cause accounting, model labels, avoided
writes, checkpoint/delta phase math, and Prometheus mirroring."""

import pytest

from repro.obs.ledger import CAUSES, WriteLedger
from repro.obs.registry import MetricsRegistry


class TestRecording:
    def test_writes_accumulate_by_cause_and_model(self):
        led = WriteLedger()
        led.record_write("admission_accept", 100, model="v1")
        led.record_write("admission_accept", 50, model="v2")
        led.record_write("replica_fill", 10, model="v1", n=3)
        assert led.total_writes == 5
        assert led.total_bytes == 160
        assert led.writes_by_cause() == {
            "admission_accept": 2,
            "replica_fill": 3,
            "rewarm_after_restart": 0,
            "flood": 0,
            "eviction_churn": 0,
            "staging_promote": 0,
        }
        assert led.writes_by_model() == {"v1": 4, "v2": 1}

    def test_unknown_cause_rejected(self):
        with pytest.raises(ValueError, match="unknown write cause"):
            WriteLedger().record_write("cosmic_ray", 1)

    def test_default_model_label(self):
        led = WriteLedger(default_model="oracle")
        led.record_write("flood", 7)
        led.record_avoided(3)
        assert led.writes_by_model() == {"oracle": 1}
        assert led.avoided_by_model() == {"oracle": 1}

    def test_avoided_writes_carry_bytes(self):
        led = WriteLedger()
        led.record_avoided(1_000, model="v1")
        led.record_avoided(500, model="v1", n=2)
        assert led.avoided_writes == 3
        assert led.avoided_bytes == 1_500

    def test_cause_order_is_stable(self):
        # Report byte-identity depends on this exact order.
        assert CAUSES == (
            "admission_accept", "replica_fill", "rewarm_after_restart",
            "flood", "eviction_churn", "staging_promote",
        )
        assert list(WriteLedger().writes_by_cause()) == list(CAUSES)


class TestSnapshotAndDelta:
    def test_snapshot_is_json_ready_and_complete(self):
        led = WriteLedger()
        led.record_write("flood", 10, model="b")
        led.record_write("admission_accept", 5, model="a")
        led.record_avoided(2, model="b")
        snap = led.snapshot()
        assert snap["total_writes"] == 2
        assert snap["total_bytes"] == 15
        assert snap["writes_by_cause"]["flood"] == 1
        assert snap["bytes_by_cause"]["admission_accept"] == 5
        assert list(snap["writes_by_model"]) == ["a", "b"]  # sorted
        assert snap["avoided_writes"] == 1
        assert snap["avoided_bytes"] == 2

    def test_checkpoint_delta_isolates_a_phase(self):
        led = WriteLedger()
        led.record_write("admission_accept", 10)
        mark = led.checkpoint()
        led.record_write("admission_accept", 10)
        led.record_write("rewarm_after_restart", 4, n=2)
        led.record_avoided(6, n=3)
        d = led.delta(mark)
        assert d["writes_by_cause"] == {
            "admission_accept": 1,
            "replica_fill": 0,
            "rewarm_after_restart": 2,
            "flood": 0,
            "eviction_churn": 0,
            "staging_promote": 0,
        }
        assert d["avoided_writes"] == 3
        assert d["avoided_bytes"] == 6

    def test_clear(self):
        led = WriteLedger()
        led.record_write("flood", 1)
        led.record_avoided(1)
        led.clear()
        assert led.total_writes == 0
        assert led.avoided_writes == 0
        assert led.snapshot()["total_bytes"] == 0


class TestRegistryMirror:
    def test_counters_mirror_every_recording(self):
        reg = MetricsRegistry()
        led = WriteLedger(registry=reg)
        led.record_write("replica_fill", 128, model="v3", n=2)
        led.record_avoided(64, model="v3")
        writes = reg.get("repro_ledger_writes_total")
        assert writes.labels(cause="replica_fill", model="v3").value == 2
        wbytes = reg.get("repro_ledger_write_bytes_total")
        assert wbytes.labels(cause="replica_fill", model="v3").value == 128
        avoided = reg.get("repro_ledger_avoided_writes_total")
        assert avoided.labels(model="v3").value == 1
        abytes = reg.get("repro_ledger_avoided_bytes_total")
        assert abytes.labels(model="v3").value == 64

    def test_registry_free_ledger_never_touches_metrics(self):
        led, mirrored = WriteLedger(), WriteLedger(registry=MetricsRegistry())
        for each in (led, mirrored):
            each.record_write("flood", 1)  # must not raise
            each.record_avoided(7, model="v1")
        assert led.snapshot() == mirrored.snapshot()
