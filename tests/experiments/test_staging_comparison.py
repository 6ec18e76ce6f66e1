"""Tests for the classifier / flashiness / composed head-to-head sweep."""

import pytest

from repro.experiments.staging import (
    HIT_RATE_SLACK,
    SCHEMES,
    StagingComparison,
    StagingPoint,
    SchemeOutcome,
    check_write_ordering,
    format_staging_table,
    run_staging_comparison,
)
from repro.trace import WorkloadConfig, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadConfig(n_objects=1500, days=1.5, seed=5))


@pytest.fixture(scope="module")
def comparison(trace):
    return run_staging_comparison(trace, fractions=(0.02, 0.05))


class TestRunStagingComparison:
    def test_shape(self, trace, comparison):
        assert [p.fraction for p in comparison.points] == [0.02, 0.05]
        assert comparison.n_requests == len(trace.object_ids)
        assert comparison.footprint_bytes == trace.footprint_bytes
        for point in comparison.points:
            assert set(point.outcomes) == set(SCHEMES)
            assert point.capacity_bytes == max(
                1, int(trace.footprint_bytes * point.fraction)
            )

    def test_schemes_behave_distinctly(self, comparison):
        for point in comparison.points:
            o = point.outcomes
            # The write-avoidance ordering the module exists to produce.
            assert o["classifier"].ssd_writes < o["no-admission"].ssd_writes
            assert o["flashiness"].ssd_writes < o["no-admission"].ssd_writes
            # Denials only happen where a classifier is attached.
            assert o["no-admission"].denied == 0
            assert o["flashiness"].denied == 0
            assert o["classifier"].denied > 0
            assert o["composed"].denied > 0
            # Promotions only happen where a staging tier is attached.
            assert o["no-admission"].promotions == 0
            assert o["flashiness"].promotions > 0
            assert o["composed"].promotions > 0

    def test_device_metrics_populated(self, comparison):
        for point in comparison.points:
            for o in point.outcomes.values():
                assert o.write_amplification >= 1.0
                assert 0.0 <= o.cmt_miss_rate <= 1.0
                assert o.cmt_lookups > 0
                assert o.lifetime_days > 0.0

    def test_write_ordering_contract_holds(self, comparison):
        # The write ordering is structural (composed admits a strict
        # subset) and must hold at any scale; the default 0.02 hit-rate
        # slack is priced for the CLI-default workload, so this 1.5k-object
        # fixture gets a wider one.
        for point in comparison.points:
            o = point.outcomes
            assert o["composed"].ssd_writes <= o["classifier"].ssd_writes
            assert o["composed"].ssd_writes <= o["flashiness"].ssd_writes
        assert check_write_ordering(comparison, hit_rate_slack=0.05) == []

    @pytest.mark.parametrize("fraction", [0.0, -0.5])
    def test_non_positive_fraction_rejected_before_any_work(
        self, trace, fraction, monkeypatch
    ):
        import repro.experiments.staging as staging

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the fractions were checked")

        monkeypatch.setattr(staging, "reaccess_distances", no_work)
        with pytest.raises(ValueError, match=repr(fraction)):
            run_staging_comparison(trace, fractions=(0.02, fraction))

    def test_to_dict_round_trips_schemes(self, comparison):
        d = comparison.to_dict()
        assert d["flashiness_threshold"] == 1
        for point, pd in zip(comparison.points, d["points"]):
            assert pd["fraction"] == point.fraction
            for scheme in SCHEMES:
                assert (
                    pd["schemes"][scheme]["ssd_writes"]
                    == point.outcomes[scheme].ssd_writes
                )

    def test_table_lists_every_scheme_per_point(self, comparison):
        table = format_staging_table(comparison)
        for scheme in SCHEMES:
            assert table.count(scheme) == len(comparison.points)
        assert "life(d)" in table


class TestPinnedComparison:
    def test_every_scheme_outcome_is_unchanged(self, comparison):
        # Recorded at dff9871 (the same under OPENBLAS_NUM_THREADS=1 and
        # =2): (ssd_writes, erases, denied, promotions, direct_admits)
        # and the exact hit rate per fraction and scheme.
        assert {
            (p.fraction, s): (
                o.ssd_writes, o.erases, o.denied, o.promotions,
                o.direct_admits, o.hit_rate,
            )
            for p in comparison.points
            for s, o in p.outcomes.items()
        } == {
            (0.02, "no-admission"): (3437, 1301, 0, 0, 0, 0.42020917678812414),
            (0.02, "classifier"): (2011, 788, 1329, 0, 0, 0.4365721997300945),
            (0.02, "flashiness"): (157, 25, 0, 157, 0, 0.2909919028340081),
            (0.02, "composed"): (134, 19, 1307, 134, 0, 0.2741228070175439),
            (0.05, "no-admission"): (2495, 494, 0, 0, 0, 0.5791160593792173),
            (0.05, "classifier"): (1597, 333, 865, 0, 0, 0.5846828609986505),
            (0.05, "flashiness"): (239, 18, 0, 239, 0, 0.39878542510121456),
            (0.05, "composed"): (221, 16, 898, 221, 0, 0.37365047233468285),
        }


class TestCheckWriteOrdering:
    def _comparison(self, composed, classifier, flashiness):
        def outcome(scheme, hit_rate, writes):
            return SchemeOutcome(
                scheme=scheme, hit_rate=hit_rate, byte_hit_rate=hit_rate,
                ssd_writes=writes, bytes_written=writes * 100,
                write_amplification=1.0, erases=1, cmt_miss_rate=0.5,
                cmt_lookups=10, lifetime_days=100.0, denied=0,
                promotions=0, direct_admits=0,
            )

        outcomes = {
            "no-admission": outcome("no-admission", 0.5, 10_000),
            "classifier": outcome("classifier", *classifier),
            "flashiness": outcome("flashiness", *flashiness),
            "composed": outcome("composed", *composed),
        }
        point = StagingPoint(
            fraction=0.02, capacity_bytes=1_000, outcomes=outcomes
        )
        return StagingComparison(
            points=[point], footprint_bytes=50_000, n_requests=1_000,
            flashiness_threshold=1, dram_fraction=0.05,
        )

    def test_clean_comparison_passes(self):
        comp = self._comparison(
            composed=(0.30, 400), classifier=(0.50, 4_000),
            flashiness=(0.31, 450),
        )
        assert check_write_ordering(comp) == []

    def test_write_excess_over_either_mechanism_flagged(self):
        comp = self._comparison(
            composed=(0.30, 5_000), classifier=(0.50, 4_000),
            flashiness=(0.31, 450),
        )
        problems = check_write_ordering(comp)
        assert len(problems) == 2
        assert any("classifier" in p for p in problems)
        assert any("flashiness" in p for p in problems)

    def test_hit_rate_floor_uses_slack(self):
        # floor = min(0.50, 0.31) - 0.02 = 0.29
        passing = self._comparison(
            composed=(0.295, 400), classifier=(0.50, 4_000),
            flashiness=(0.31, 450),
        )
        assert check_write_ordering(passing) == []
        failing = self._comparison(
            composed=(0.28, 400), classifier=(0.50, 4_000),
            flashiness=(0.31, 450),
        )
        problems = check_write_ordering(failing)
        assert problems and "hit rate" in problems[0]

    def test_custom_slack_overrides_default(self):
        comp = self._comparison(
            composed=(0.28, 400), classifier=(0.50, 4_000),
            flashiness=(0.31, 450),
        )
        assert check_write_ordering(comp, hit_rate_slack=0.05) == []
        assert HIT_RATE_SLACK == pytest.approx(0.02)
