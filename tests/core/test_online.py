"""Tests for the incremental (online) predictor."""

import numpy as np
import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.online import IncrementalPredictor
from repro.core.predictor import TemporalReliabilityPredictor
from repro.core.windows import ClockWindow, DayType
from repro.service import AvailabilityService


@pytest.fixture()
def incremental():
    return IncrementalPredictor(config=EstimatorConfig(step_multiple=10))


WINDOWS = [(2, 1.0), (8, 2.0), (11, 3.0), (14, 5.0), (20, 10.0)]


class TestEquivalenceWithBatch:
    def test_same_tr_as_batch(self, long_trace, incremental):
        batch = TemporalReliabilityPredictor(
            long_trace, estimator_config=EstimatorConfig(step_multiple=10)
        )
        for h, T in WINDOWS:
            cw = ClockWindow.from_hours(h, T)
            for dtype in (DayType.WEEKDAY, DayType.WEEKEND):
                tr_batch = batch.predict(cw, dtype)
                tr_inc = incremental.predict(long_trace, cw, dtype)
                assert tr_inc == pytest.approx(tr_batch, abs=1e-12), (h, T, dtype)

    def test_same_kernel_as_batch(self, long_trace, incremental):
        batch = TemporalReliabilityPredictor(
            long_trace, estimator_config=EstimatorConfig(step_multiple=10)
        )
        cw = ClockWindow.from_hours(9, 3)
        k_batch = batch.kernel(cw, DayType.WEEKDAY)
        k_inc = incremental.kernel(long_trace, cw, DayType.WEEKDAY)
        assert np.allclose(k_batch.k, k_inc.k)

    def test_same_initial_state(self, long_trace, incremental):
        batch = TemporalReliabilityPredictor(
            long_trace, estimator_config=EstimatorConfig(step_multiple=10)
        )
        for h in (2, 9, 14):
            cw = ClockWindow.from_hours(h, 2)
            assert incremental.typical_initial_state(
                long_trace, cw, DayType.WEEKDAY
            ) is batch.estimator.typical_initial_state(long_trace, cw, DayType.WEEKDAY)

    @pytest.mark.parametrize("step_multiple", [1, 5, 10])
    def test_every_path_agrees_on_testbed(self, testbed, step_multiple):
        """Serving, fleet, paper and bootstrap paths: one answer per key."""
        config = EstimatorConfig(step_multiple=step_multiple)
        service = AvailabilityService(estimator_config=config)
        paper = {}
        for trace in testbed:
            service.register(trace)
            paper[trace.machine_id] = TemporalReliabilityPredictor(
                trace, estimator_config=config
            )
        tr_diff, fleet_diff, init_diff, point_diff = [], [], [], []
        n_keys = n_points = 0
        for h in range(0, 24, 2):
            for hours in (1, 3):
                cw = ClockWindow.from_hours(h, hours)
                for dtype in (DayType.WEEKDAY, DayType.WEEKEND):
                    scan = service.fleet_scan(cw, dtype)
                    for mid, pred in paper.items():
                        key = (mid, h, hours, dtype.value)
                        n_keys += 1
                        tr = service.predict(mid, cw, dtype)
                        detail = pred.predict_detailed(cw, dtype)
                        if abs(tr - detail.tr) > 1e-12:
                            tr_diff.append(key)
                        if abs(scan.trs()[mid] - tr) > 1e-9:
                            fleet_diff.append(key)
                        served = service.predictor_for(mid).typical_initial_state(
                            testbed[mid], cw, dtype
                        )
                        if not (
                            served is detail.init_state
                            and scan.init_states[scan.index(mid)] == int(served)
                        ):
                            init_diff.append(key)
                        if h % 6 == 0:
                            n_points += 1
                            iv = service.interval(mid, cw, dtype, n_resamples=1)
                            if abs(iv.point - tr) > 1e-12:
                                point_diff.append(key)
        assert not tr_diff, f"predict != paper TR on {len(tr_diff)}/{n_keys}: {tr_diff}"
        assert not fleet_diff, f"fleet_scan != predict on {len(fleet_diff)}/{n_keys}"
        assert not init_diff, f"start states differ on {len(init_diff)}/{n_keys}"
        assert not point_diff, (
            f"interval point != predict on {len(point_diff)}/{n_points}"
        )


class TestCaching:
    def test_second_query_reuses_days(self, long_trace, incremental):
        cw = ClockWindow.from_hours(9, 2)
        incremental.predict(long_trace, cw, DayType.WEEKDAY)
        classified_first = incremental.days_classified
        assert incremental.days_reused == 0
        incremental.predict(long_trace, cw, DayType.WEEKDAY)
        assert incremental.days_classified == classified_first
        assert incremental.days_reused == classified_first

    def test_growing_trace_classifies_only_new_days(self, incremental):
        from repro.traces.synthesis import synthesize_trace

        full = synthesize_trace("grow", n_days=21, sample_period=60.0, seed=4)
        cw = ClockWindow.from_hours(9, 2)
        short = full.slice_days(0, 14)
        incremental.predict(short, cw, DayType.WEEKDAY)
        n_first = incremental.days_classified
        incremental.predict(full, cw, DayType.WEEKDAY)
        new_days = incremental.days_classified - n_first
        assert new_days == 5  # days 14..20 add one working week

    def test_prediction_correct_after_growth(self, incremental):
        from repro.traces.synthesis import synthesize_trace

        full = synthesize_trace("grow2", n_days=21, sample_period=60.0, seed=6)
        cw = ClockWindow.from_hours(10, 3)
        short = full.slice_days(0, 14)
        incremental.predict(short, cw, DayType.WEEKDAY)
        tr_inc = incremental.predict(full, cw, DayType.WEEKDAY)
        batch = TemporalReliabilityPredictor(
            full, estimator_config=incremental.config
        )
        assert tr_inc == pytest.approx(batch.predict(cw, DayType.WEEKDAY), abs=1e-12)

    def test_distinct_windows_cached_separately(self, long_trace, incremental):
        incremental.predict(long_trace, ClockWindow.from_hours(9, 2), DayType.WEEKDAY)
        n = incremental.days_classified
        incremental.predict(long_trace, ClockWindow.from_hours(10, 2), DayType.WEEKDAY)
        assert incremental.days_classified > n

    def test_invalidate_machine(self, long_trace, incremental):
        cw = ClockWindow.from_hours(9, 2)
        incremental.predict(long_trace, cw, DayType.WEEKDAY)
        incremental.invalidate(long_trace.machine_id)
        reused_before = incremental.days_reused
        incremental.predict(long_trace, cw, DayType.WEEKDAY)
        assert incremental.days_reused == reused_before  # nothing reused

    def test_invalidate_all(self, long_trace, incremental):
        cw = ClockWindow.from_hours(9, 2)
        incremental.predict(long_trace, cw, DayType.WEEKDAY)
        incremental.invalidate()
        assert incremental._caches == {}

    def test_subsecond_windows_do_not_share_cache(self, long_trace, incremental):
        # Regression: _clock_key used to round start/duration to whole
        # seconds, so windows 0.2 s apart collided on one cache entry and
        # the second query silently reused the first window's observations.
        a = ClockWindow(start=9 * 3600.0 + 0.2, duration=2 * 3600.0)
        b = ClockWindow(start=9 * 3600.0 + 0.4, duration=2 * 3600.0)
        incremental.predict(long_trace, a, DayType.WEEKDAY)
        n = incremental.days_classified
        reused = incremental.days_reused
        incremental.predict(long_trace, b, DayType.WEEKDAY)
        assert incremental.days_classified > n  # b classified fresh days
        assert incremental.days_reused == reused  # nothing leaked from a
        assert len(incremental._caches) == 2

    def test_subsecond_windows_match_batch(self, long_trace, incremental):
        batch = TemporalReliabilityPredictor(
            long_trace, estimator_config=EstimatorConfig(step_multiple=10)
        )
        for offset in (0.2, 0.4):
            cw = ClockWindow(start=9 * 3600.0 + offset, duration=2 * 3600.0)
            tr_inc = incremental.predict(long_trace, cw, DayType.WEEKDAY)
            assert tr_inc == pytest.approx(
                batch.predict(cw, DayType.WEEKDAY), abs=1e-12
            ), offset


class TestLruBound:
    def test_unbounded_when_none(self, long_trace):
        pred = IncrementalPredictor(
            config=EstimatorConfig(step_multiple=10), max_cache_entries=None
        )
        for h in range(12):
            pred.predict(long_trace, ClockWindow.from_hours(h, 1.0), DayType.WEEKDAY)
        assert len(pred) == 12

    def test_eviction_bounds_entries(self, long_trace):
        from repro.obs.metrics import scoped_registry

        with scoped_registry() as reg:
            pred = IncrementalPredictor(
                config=EstimatorConfig(step_multiple=10), max_cache_entries=4
            )
            for h in range(10):
                pred.predict(
                    long_trace, ClockWindow.from_hours(h, 1.0), DayType.WEEKDAY
                )
            assert len(pred) == 4
            assert reg.get("incremental_cache_evictions_total").value == 6.0

    def test_lru_order_keeps_hot_entries(self, long_trace):
        pred = IncrementalPredictor(
            config=EstimatorConfig(step_multiple=10), max_cache_entries=2
        )
        hot = ClockWindow.from_hours(9, 1.0)
        pred.predict(long_trace, hot, DayType.WEEKDAY)
        before = pred.days_classified
        # touch hot, then push one cold window through; hot must survive
        for h in (14, 9, 16, 9, 18, 9):
            pred.predict(long_trace, ClockWindow.from_hours(h, 1.0), DayType.WEEKDAY)
        after = pred.days_classified
        pred.predict(long_trace, hot, DayType.WEEKDAY)
        assert pred.days_classified == after  # hot was never evicted
        assert after > before  # the cold windows did classify

    def test_evicted_entry_recomputes_identically(self, long_trace):
        pred = IncrementalPredictor(
            config=EstimatorConfig(step_multiple=10), max_cache_entries=1
        )
        cw = ClockWindow.from_hours(9, 2.0)
        first = pred.predict(long_trace, cw, DayType.WEEKDAY)
        pred.predict(long_trace, ClockWindow.from_hours(15, 2.0), DayType.WEEKDAY)
        assert len(pred) == 1  # the 9h window was evicted
        assert pred.predict(long_trace, cw, DayType.WEEKDAY) == pytest.approx(
            first, abs=1e-15
        )

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            IncrementalPredictor(max_cache_entries=0)


class TestApi:
    def test_absolute_window(self, long_trace, incremental):
        aw = ClockWindow.from_hours(9, 2).on_day(long_trace.last_day + 1)
        tr = incremental.predict(long_trace, aw)
        assert 0.0 <= tr <= 1.0

    def test_clock_window_requires_day_type(self, long_trace, incremental):
        with pytest.raises(ValueError):
            incremental.predict(long_trace, ClockWindow.from_hours(9, 2))

    def test_explicit_init_state(self, long_trace, incremental):
        from repro.core.states import State

        cw = ClockWindow.from_hours(9, 2)
        tr = incremental.predict(long_trace, cw, DayType.WEEKDAY, init_state=State.S5)
        assert tr == 0.0
