"""Span tracer unit tests: recording, tracks, ring bounds, the disabled
no-op path, asyncio contextvar propagation, and Chrome-trace export."""

import asyncio
import json

import pytest

from repro.obs.spans import (
    _CURRENT_TRACK,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)


def fake_clock(start=1_000):
    """Deterministic ns clock: +1000 ns per read."""
    state = {"t": start}

    def clock():
        state["t"] += 1_000
        return state["t"]

    return clock


class TestRecording:
    def test_span_records_name_cat_args_and_interval(self):
        tr = Tracer(clock=fake_clock())
        with tr.span("work", "test", n=3):
            pass
        (ev,) = tr.events()
        assert ev["name"] == "work"
        assert ev["cat"] == "test"
        assert ev["args"] == {"n": 3}
        assert ev["end_ns"] > ev["start_ns"]

    def test_annotate_updates_args_mid_span(self):
        tr = Tracer()
        with tr.span("work", "test", a=1) as sp:
            sp.annotate(b=2, a=9)
        (ev,) = tr.events()
        assert ev["args"] == {"a": 9, "b": 2}

    def test_start_ns_backdates_the_span(self):
        tr = Tracer(clock=fake_clock(start=50_000))
        with tr.span("late", "test", start_ns=7):
            pass
        (ev,) = tr.events()
        assert ev["start_ns"] == 7
        assert ev["end_ns"] >= 50_000

    def test_add_records_pre_measured_interval(self):
        tr = Tracer()
        tr.add("queue_wait", "server", 100, 400, args={"k": 1})
        (ev,) = tr.events()
        assert (ev["start_ns"], ev["end_ns"]) == (100, 400)
        assert ev["args"] == {"k": 1}

    def test_exception_still_records_and_propagates(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom", "test"):
                raise RuntimeError("x")
        assert len(tr) == 1
        assert _CURRENT_TRACK.get() is None  # token was reset


class TestTracks:
    def test_children_share_the_root_track(self):
        tr = Tracer()
        with tr.span("root", "test"):
            with tr.span("child", "test"):
                pass
        child, root = tr.events()
        assert child["name"] == "child"
        assert child["track"] == root["track"]

    def test_independent_roots_get_distinct_tracks(self):
        tr = Tracer()
        with tr.span("a", "test"):
            pass
        with tr.span("b", "test"):
            pass
        a, b = tr.events()
        assert a["track"] != b["track"]

    def test_use_track_pins_adds_and_spans(self):
        tr = Tracer()
        with tr.use_track() as track:
            tr.add("manual", "test", 1, 2)
            with tr.span("nested", "test"):
                pass
        manual, nested = tr.events()
        assert manual["track"] == nested["track"] == track

    def test_add_outside_any_span_roots_a_new_track(self):
        tr = Tracer()
        tr.add("a", "test", 1, 2)
        tr.add("b", "test", 3, 4)
        a, b = tr.events()
        assert a["track"] != b["track"]

    def test_asyncio_tasks_inherit_then_isolate(self):
        """A task created inside a span inherits its track; the span
        exiting in the parent context cannot disturb the task's copy."""
        tr = Tracer()

        async def child():
            await asyncio.sleep(0)
            with tr.span("in_task", "test"):
                await asyncio.sleep(0)

        async def main():
            with tr.span("root", "test"):
                task = asyncio.ensure_future(child())
            # Root exited; the task still carries the inherited track.
            await task
            with tr.span("sibling", "test"):
                pass

        asyncio.run(main())
        by_name = {e["name"]: e for e in tr.events()}
        assert by_name["in_task"]["track"] == by_name["root"]["track"]
        assert by_name["sibling"]["track"] != by_name["root"]["track"]


class TestRingBounds:
    def test_ring_keeps_newest_and_counts_drops(self):
        tr = Tracer(capacity=3)
        for i in range(5):
            tr.add(f"s{i}", "test", i, i + 1)
        assert len(tr) == 3
        assert tr.recorded == 5
        assert tr.dropped == 2
        assert [e["name"] for e in tr.events()] == ["s2", "s3", "s4"]

    def test_events_limit_returns_newest_oldest_first(self):
        tr = Tracer()
        for i in range(4):
            tr.add(f"s{i}", "test", i, i + 1)
        assert [e["name"] for e in tr.events(limit=2)] == ["s2", "s3"]

    def test_events_clear_drains_buffer_keeps_recorded(self):
        tr = Tracer()
        tr.add("s", "test", 0, 1)
        assert tr.events(clear=True)
        assert len(tr) == 0
        assert tr.recorded == 1

    def test_drained_spans_are_not_dropped(self):
        """``dropped`` counts ring evictions only, never delivered spans."""
        tr = Tracer(capacity=100)
        for i in range(10):
            tr.add(f"s{i}", "test", i, i + 1)
        assert len(tr.events(clear=True)) == 10
        assert tr.dropped == 0
        tr = Tracer(capacity=5)
        for i in range(8):
            tr.add(f"s{i}", "test", i, i + 1)
        assert tr.dropped == 3
        tr.events(limit=1, clear=True)  # clears all five, delivers one
        assert tr.dropped == 3
        for i in range(7):
            tr.add(f"t{i}", "test", i, i + 1)
        assert tr.dropped == 5 and tr.recorded == 15

    def test_clear_resets_everything(self):
        tr = Tracer(capacity=1)
        tr.add("a", "test", 0, 1)
        tr.add("b", "test", 1, 2)
        tr.clear()
        assert len(tr) == 0 and tr.recorded == 0 and tr.dropped == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)


class TestDisabledNoOp:
    def test_span_returns_the_shared_null_singleton(self):
        tr = Tracer(enabled=False)
        assert tr.span("x", "test", a=1) is NULL_SPAN
        assert NULL_TRACER.span("y") is NULL_SPAN

    def test_nothing_is_recorded_when_disabled(self):
        tr = Tracer(enabled=False)
        with tr.span("x", "test"):
            pass
        tr.add("y", "test", 0, 1)
        assert len(tr) == 0 and tr.recorded == 0

    def test_null_span_api_is_inert(self):
        with NULL_TRACER.span("x") as sp:
            assert sp.annotate(a=1) is sp
            assert sp.track is None
        with NULL_TRACER.use_track():
            pass

    def test_empty_tracer_is_truthy(self):
        # ``tracer or NULL_TRACER`` must never drop a real-but-empty
        # tracer; truthiness is identity, not buffer occupancy.
        tr = Tracer()
        assert bool(tr) is True
        assert (tr or NULL_TRACER) is tr

    def test_disabled_clock_never_read(self):
        def forbidden():
            raise AssertionError("clock read on the disabled path")

        tr = Tracer(enabled=False, clock=forbidden)
        with tr.span("x", "test"):
            pass

    def test_enabled_and_disabled_paths_counted(self):
        """What a span costs each way, in clock reads and ring writes.

        Recording reads the clock twice per span and stores one event; the
        disabled path hands back :data:`NULL_SPAN` and does neither.
        """
        reads = {True: 0, False: 0}

        def counting_clock(enabled):
            def clock():
                reads[enabled] += 1
                return 1_000 * reads[enabled]

            return clock

        tracers = {
            enabled: Tracer(capacity=4096, enabled=enabled,
                            clock=counting_clock(enabled))
            for enabled in (True, False)
        }
        for _ in range(256):
            for tr in tracers.values():
                with tr.span("bench", "perf") as sp:
                    pass
        assert sp is NULL_SPAN
        assert reads == {True: 512, False: 0}
        assert tracers[True].recorded == len(tracers[True]) == 256
        assert tracers[False].recorded == len(tracers[False]) == 0


class TestChromeExport:
    def test_to_chrome_rebases_and_scales_to_us(self):
        tr = Tracer()
        tr.add("a", "test", 5_000, 8_000, track=1)
        tr.add("b", "test", 9_000, 9_500, track=1)
        doc = tr.to_chrome()
        meta, a, b = doc["traceEvents"]
        assert meta["ph"] == "M" and meta["name"] == "process_name"
        assert a["ts"] == 0.0 and a["dur"] == 3.0      # µs, rebased
        assert b["ts"] == 4.0 and b["dur"] == 0.5
        assert doc["displayTimeUnit"] == "ms"

    def test_export_is_json_serialisable_and_validates(self):
        tr = Tracer()
        with tr.span("root", "test", n=1):
            with tr.span("child", "test"):
                pass
        doc = json.loads(json.dumps(tr.to_chrome(process_name="unit")))
        assert validate_chrome_trace(doc) == 2

    def test_empty_tracer_exports_metadata_only(self):
        doc = chrome_trace([])
        assert validate_chrome_trace(doc) == 0
        assert len(doc["traceEvents"]) == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "JSON object"),
            ({"traceEvents": {}}, "must be a list"),
            ({"traceEvents": ["x"]}, "not an object"),
            ({"traceEvents": [{"ph": "X"}]}, "string 'name'"),
            ({"traceEvents": [{"name": "a"}]}, "string 'ph'"),
            (
                {"traceEvents": [{"name": "a", "ph": "X", "ts": -1.0}]},
                "'ts' must be a number >= 0",
            ),
            (
                {
                    "traceEvents": [
                        {"name": "a", "ph": "X", "ts": 0, "dur": 1,
                         "pid": 1, "tid": "t"}
                    ]
                },
                "'tid' must be an integer",
            ),
            (
                {
                    "traceEvents": [
                        {"name": "a", "ph": "X", "ts": 0, "dur": 1,
                         "pid": 1, "tid": 1, "args": []}
                    ]
                },
                "'args' must be an object",
            ),
        ],
    )
    def test_validate_rejects_malformed_documents(self, doc, message):
        with pytest.raises(ValueError, match=message):
            validate_chrome_trace(doc)

    def test_validate_ignores_non_x_phases(self):
        doc = {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "args": {"name": "p"}},
                {"name": "counter", "ph": "C"},
            ]
        }
        assert validate_chrome_trace(doc) == 0
