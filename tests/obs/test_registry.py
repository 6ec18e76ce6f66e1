"""Registry semantics: metric kinds, labels, buckets, reservoir bounds."""

import math
import random

import numpy as np
import pytest

from repro.obs.registry import (
    MetricsRegistry,
    Reservoir,
    latency_buckets,
)


class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0


class TestHistogram:
    def test_observe_and_cumulative(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        child = h.labels()
        # le=1 captures 0.5 and the boundary value 1.0 (le is inclusive).
        assert child.cumulative() == [
            (1.0, 2),
            (2.0, 3),
            (4.0, 4),
            (math.inf, 5),
        ]
        assert child.count == 5
        assert child.sum == pytest.approx(106.0)

    def test_observe_many_matches_loop(self):
        reg = MetricsRegistry()
        a = reg.histogram("a", buckets=(1.0, 2.0)).labels()
        b = reg.histogram("b", buckets=(1.0, 2.0)).labels()
        a.observe_many(1.5, 1000)
        for _ in range(1000):
            b.observe(1.5)
        assert a.counts == b.counts
        assert a.sum == pytest.approx(b.sum)
        assert a.count == b.count

    def test_non_increasing_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=(1.0, 1.0))

    def test_latency_buckets_log_scale(self):
        b = latency_buckets()
        assert b[0] == pytest.approx(1e-6)
        ratios = {b[i + 1] / b[i] for i in range(len(b) - 1)}
        assert all(r == pytest.approx(2.0) for r in ratios)
        with pytest.raises(ValueError):
            latency_buckets(start=0.0)


class TestLabels:
    def test_children_are_independent(self):
        fam = MetricsRegistry().counter("req_total", "", ("op", "code"))
        fam.labels("GET", "200").inc()
        fam.labels(op="GET", code="500").inc(3)
        assert fam.labels("GET", "200").value == 1
        assert fam.labels("GET", "500").value == 3

    def test_label_cardinality_enforced(self):
        fam = MetricsRegistry().counter("req_total", "", ("op",))
        with pytest.raises(ValueError):
            fam.labels("GET", "extra")
        with pytest.raises(ValueError):
            fam.labels(nope="x")
        with pytest.raises(ValueError):
            fam.labels("GET", op="GET")

    def test_unlabelled_use_of_labelled_family_rejected(self):
        fam = MetricsRegistry().counter("req_total", "", ("op",))
        with pytest.raises(ValueError):
            fam.inc()

    def test_reserved_and_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", labelnames=("le",))
        with pytest.raises(ValueError):
            reg.counter("1bad")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labelnames=("bad-label",))


class TestDerivedFamily:
    """``read=``: the registry is a view of numbers their owner keeps."""

    def owner_and_registry(self):
        owner = {"hits": 3, "misses": 1, "depth": 2.5}
        reg = MetricsRegistry()
        reg.counter(
            "req_total", "Requests.", ("result",),
            read=lambda: (("hit", owner["hits"]), ("miss", owner["misses"])),
        )
        reg.gauge("depth", "Queue depth.", read=lambda: owner["depth"])
        return owner, reg

    def test_every_surface_reads_the_owner_at_read_time(self):
        owner, reg = self.owner_and_registry()
        req, depth = reg.get("req_total"), reg.get("depth")
        for hits, d in ((3, 2.5), (40, 0.0)):
            owner["hits"], owner["depth"] = hits, d
            assert req.labels(result="hit").value == hits
            assert req.labels("miss").value == 1
            assert depth.value == depth.labels().value == d
            assert [(k, c.value) for k, c in req.children()] == [
                (("hit",), hits), (("miss",), 1),
            ]
            text = reg.render_prometheus()
            assert f'req_total{{result="hit"}} {hits}\n' in text
            assert 'req_total{result="miss"} 1\n' in text
            snap = reg.snapshot()
            assert snap["req_total"]["type"] == "counter"
            assert snap["req_total"]["values"] == [
                {"labels": {"result": "hit"}, "value": float(hits)},
                {"labels": {"result": "miss"}, "value": 1.0},
            ]
            assert snap["depth"]["values"] == [{"labels": {}, "value": d}]

    def test_exposition_matches_a_written_family(self):
        """Same text whether the number is pushed or read."""
        _, derived = self.owner_and_registry()
        pushed = MetricsRegistry()
        req = pushed.counter("req_total", "Requests.", ("result",))
        req.labels(result="hit").inc(3)
        req.labels(result="miss").inc(1)
        pushed.gauge("depth", "Queue depth.").set(2.5)
        assert derived.render_prometheus() == pushed.render_prometheus()
        assert derived.snapshot() == pushed.snapshot()

    def test_two_readers_feed_one_family(self):
        reg = MetricsRegistry()
        node, server = {"n": 7}, {"n": 9}
        reg.gauge("seen", "", ("reservoir",), read=lambda: [("a", node["n"])])
        fam = reg.gauge(
            "seen", labelnames=("reservoir",), read=lambda: [("b", server["n"])]
        )
        assert [(k, c.value) for k, c in fam.children()] == [
            (("a",), 7), (("b",), 9),
        ]
        # A later reader's sample replaces an earlier one under the same
        # label values (a rebuilt owner takes its series over).
        reg.gauge("seen", labelnames=("reservoir",), read=lambda: [("a", 1)])
        assert fam.labels(reservoir="a").value == 1

    def test_an_absent_series_reads_zero(self):
        _, reg = self.owner_and_registry()
        assert reg.get("req_total").labels(result="other").value == 0

    def test_writes_are_rejected(self):
        _, reg = self.owner_and_registry()
        req, depth = reg.get("req_total"), reg.get("depth")
        for write in (
            depth.inc, depth.dec, lambda: depth.set(1),
            req.labels(result="hit").inc, lambda: req.labels("hit").set(1),
            req.labels(result="hit").dec,
        ):
            with pytest.raises(TypeError):
                write()

    def test_reset_leaves_it_to_its_owner(self):
        owner, reg = self.owner_and_registry()
        pushed = reg.counter("pushed_total")
        pushed.inc(5)
        reg.reset()
        assert pushed.value == 0
        assert reg.get("req_total").labels(result="hit").value == owner["hits"]
        assert reg.get("depth").value == owner["depth"]

    def test_a_histogram_refuses_read(self):
        with pytest.raises(TypeError):
            MetricsRegistry().histogram("h", read=lambda: 1)

    def test_reregistering_with_another_kind_or_labels_still_raises(self):
        _, reg = self.owner_and_registry()
        with pytest.raises(ValueError):
            reg.gauge("req_total", labelnames=("result",), read=lambda: ())
        with pytest.raises(ValueError):
            reg.counter("req_total", labelnames=("other",), read=lambda: ())
        with pytest.raises(ValueError):
            reg.counter("depth", read=lambda: 0)
        # ... and a written family cannot become a derived one.
        reg.counter("pushed_total")
        with pytest.raises(ValueError):
            reg.counter("pushed_total", read=lambda: 0)


class TestRegistry:
    def test_registration_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "", ("k",))
        b = reg.counter("x_total", "", ("k",))
        assert a is b

    def test_kind_or_labels_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("k",))

    def test_reset_zeroes_but_keeps_families(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        h = reg.histogram("h", buckets=(1.0,))
        c.inc(5)
        h.observe(0.5)
        reg.reset()
        assert c.value == 0
        assert h.labels().count == 0
        assert reg.get("c_total") is c

    def test_snapshot_is_jsonable(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c_total", "help", ("k",)).labels(k="v").inc(2)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c_total"]["values"][0] == {"labels": {"k": "v"}, "value": 2}
        assert snap["h"]["values"][0]["buckets"] == {"1": 0, "2": 1, "+Inf": 1}


class TestReservoir:
    def test_bounded_with_exact_aggregates(self):
        r = Reservoir(capacity=100, seed=1)
        for i in range(100_000):
            r.add(float(i))
        assert r.retained == 100
        assert len(r) == 100_000
        assert r.count == 100_000
        assert r.max_value == 99_999.0
        assert r.min_value == 0.0
        assert r.mean == pytest.approx(49_999.5)

    def test_exact_below_capacity(self):
        r = Reservoir(capacity=1000)
        values = [random.Random(7).random() for _ in range(500)]
        for v in values:
            r.add(v)
        assert sorted(r) == sorted(values)
        s = r.summary()
        assert s["count"] == 500
        assert s["p50"] == pytest.approx(np.percentile(values, 50))
        assert s["max"] == pytest.approx(max(values))

    def test_uniformity(self):
        """Retained sample mean tracks the stream mean (Algorithm R)."""
        r = Reservoir(capacity=500, seed=3)
        for i in range(50_000):
            r.add(float(i))
        assert r.values().mean() == pytest.approx(25_000, rel=0.15)

    def test_add_repeated(self):
        r = Reservoir(capacity=10)
        r.add_repeated(2.0, 5000)
        assert r.count == 5000
        assert r.total == pytest.approx(10_000.0)
        assert r.retained == 10

    def test_add_repeated_is_state_identical_to_sequential_adds(self):
        """Same totals AND the same RNG draw sequence as n ``add`` calls.

        The serving hot path amortises per-batch latency observations
        through ``add_repeated``; bit-identical state means switching a
        code path to it can never change a percentile by construction.
        """
        a = Reservoir(capacity=32, seed=17)
        b = Reservoir(capacity=32, seed=17)
        script = [(1.5, 7), (2.0, 40), (0.25, 1), (9.0, 100), (3.5, 13)]
        for value, n in script:
            a.add_repeated(value, n)
            for _ in range(n):
                b.add(value)
        assert a.count == b.count
        assert a.total == b.total
        assert a.min_value == b.min_value and a.max_value == b.max_value
        assert list(a) == list(b)
        # ...and the RNG streams stayed aligned: the next draws agree too.
        a.add(123.0)
        b.add(123.0)
        assert list(a) == list(b)

    def test_add_repeated_nonpositive_count_is_noop(self):
        r = Reservoir(capacity=4, seed=1)
        r.add_repeated(5.0, 0)
        r.add_repeated(5.0, -3)
        assert r.count == 0 and r.retained == 0

    def test_clear_is_deterministic(self):
        a = Reservoir(capacity=10, seed=9)
        for i in range(1000):
            a.add(float(i))
        kept = list(a)
        a.clear()
        assert a.count == 0 and a.retained == 0
        for i in range(1000):
            a.add(float(i))
        assert list(a) == kept

    def test_empty_summary(self):
        assert Reservoir().summary() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
            "p99": 0.0, "max": 0.0,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Reservoir(capacity=0)
