"""Decision-trace sampling, ring bound, and JSON-lines encoding."""

import json

import pytest

from repro.obs.structlog import json_line
from repro.obs.tracing import EVENT_FIELDS, DecisionTrace


def event(i):
    return {"index": i, "object_id": i * 7, "verdict": 1}


class TestSampling:
    def test_rate_one_samples_everything(self):
        t = DecisionTrace(capacity=10, sample_rate=1.0)
        assert all(t.should_sample(i) for i in range(100))
        assert t.seen == 100

    def test_rate_zero_samples_nothing(self):
        t = DecisionTrace(capacity=10, sample_rate=0.0)
        assert not any(t.should_sample(i) for i in range(100))
        assert t.seen == 100

    def test_sampling_is_deterministic_in_position(self):
        a = DecisionTrace(sample_rate=0.3)
        b = DecisionTrace(sample_rate=0.3)
        picks_a = [a.should_sample(i) for i in range(5000)]
        picks_b = [b.should_sample(i) for i in range(5000)]
        assert picks_a == picks_b

    def test_sample_rate_is_roughly_honoured(self):
        t = DecisionTrace(sample_rate=0.25)
        n = sum(t.should_sample(i) for i in range(20_000))
        assert 0.22 < n / 20_000 < 0.28

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DecisionTrace(capacity=0)
        with pytest.raises(ValueError):
            DecisionTrace(sample_rate=1.5)


class TestRingBuffer:
    def test_capacity_bound_keeps_most_recent(self):
        t = DecisionTrace(capacity=5, sample_rate=1.0)
        for i in range(20):
            t.record(event(i))
        assert len(t) == 5
        assert [e["index"] for e in t.events()] == [15, 16, 17, 18, 19]
        assert t.sampled == 20
        assert t.dropped == 15

    def test_events_limit_returns_most_recent_oldest_first(self):
        t = DecisionTrace(capacity=10)
        for i in range(8):
            t.record(event(i))
        assert [e["index"] for e in t.events(limit=3)] == [5, 6, 7]
        assert [e["index"] for e in t.events(limit=0)] == []
        with pytest.raises(ValueError):
            t.events(limit=-1)

    def test_events_clear_drains_buffer_but_keeps_counters(self):
        t = DecisionTrace(capacity=10)
        for i in range(4):
            t.should_sample(i)
            t.record(event(i))
        out = t.events(clear=True)
        assert len(out) == 4
        assert len(t) == 0
        assert t.seen == 4 and t.sampled == 4

    def test_drained_events_are_not_dropped(self):
        """``dropped`` counts ring evictions only, never delivered events."""
        t = DecisionTrace(capacity=100)
        for i in range(10):
            t.record(event(i))
        assert len(t.events(clear=True)) == 10
        assert t.dropped == 0
        t = DecisionTrace(capacity=5)
        for i in range(8):
            t.record(event(i))
        assert t.dropped == 3
        t.events(limit=1, clear=True)  # clears all five, delivers one
        assert t.dropped == 3
        for i in range(7):
            t.record(event(i))
        assert t.dropped == 5 and t.sampled == 15

    def test_clear_resets_counters(self):
        t = DecisionTrace(capacity=10)
        t.should_sample(0)
        t.record(event(0))
        t.clear()
        assert t.seen == 0 and t.sampled == 0 and len(t) == 0


class TestEncoding:
    def test_to_jsonl_round_trips(self):
        t = DecisionTrace(capacity=4)
        for i in range(3):
            t.record(event(i))
        lines = [json_line(e) for e in t.events()]
        assert [json.loads(line)["index"] for line in lines] == [0, 1, 2]

    def test_event_fields_documented(self):
        # The schema tuple is what docs and consumers key off.
        assert "index" in EVENT_FIELDS
        assert "verdict" in EVENT_FIELDS
        assert "t_classify" in EVENT_FIELDS
