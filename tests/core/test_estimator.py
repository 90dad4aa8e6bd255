"""Tests for windowed kernel estimation from history traces."""

import numpy as np
import pytest

from repro.core.classifier import StateClassifier
from repro.core.estimator import EstimatorConfig, WindowedKernelEstimator, coarsen_states
from repro.core.smp import VisitObservation
from repro.core.states import State
from repro.core.windows import SECONDS_PER_DAY, ClockWindow, DayType
from repro.traces.trace import MachineTrace


def flat_trace(n_days=14, period=60.0, load=0.05, start_day=0):
    n = int(n_days * SECONDS_PER_DAY / period)
    return MachineTrace(
        machine_id="flat",
        start_time=start_day * SECONDS_PER_DAY,
        sample_period=period,
        load=np.full(n, load),
        free_mem_mb=np.full(n, 400.0),
        up=np.ones(n, bool),
    )


def trace_with_daily_failure(n_days=10, period=60.0, fail_hour=9.0, fail_minutes=5):
    """Every day: S3 from fail_hour for fail_minutes, else idle."""
    n_per_day = int(SECONDS_PER_DAY / period)
    load = np.full(n_days * n_per_day, 0.05)
    i0 = int(fail_hour * 3600 / period)
    k = int(fail_minutes * 60 / period)
    for d in range(n_days):
        load[d * n_per_day + i0 : d * n_per_day + i0 + k] = 0.95
    return MachineTrace("daily", 0.0, period, load, np.full(load.shape, 400.0))


class TestCoarsenStates:
    def test_identity(self):
        s = np.array([1, 2, 3])
        assert coarsen_states(s, 1) is s

    def test_max_severity_wins(self):
        s = np.array([1, 1, 5, 1, 2, 2])
        out = coarsen_states(s, 3)
        assert list(out) == [5, 2]

    def test_partial_tail_group(self):
        s = np.array([1, 1, 1, 3])
        out = coarsen_states(s, 3)
        assert list(out) == [1, 3]

    def test_failure_never_hidden(self):
        rng = np.random.default_rng(3)
        s = rng.choice([1, 2], size=100).astype(np.int8)
        s[57] = 4
        for mult in (2, 5, 7):
            assert 4 in coarsen_states(s, mult)


class TestConfigValidation:
    def test_rejects_bad_history_days(self):
        with pytest.raises(ValueError):
            EstimatorConfig(history_days=0)

    def test_rejects_negative_lookback(self):
        with pytest.raises(ValueError):
            EstimatorConfig(lookback=-1.0)

    def test_rejects_bad_step_multiple(self):
        with pytest.raises(ValueError):
            EstimatorConfig(step_multiple=0)


class TestHistorySelection:
    def test_day_type_filtering(self):
        est = WindowedKernelEstimator()
        trace = flat_trace(n_days=14)
        cw = ClockWindow.from_hours(8, 2)
        wd = est.history_days(trace, cw, DayType.WEEKDAY)
        we = est.history_days(trace, cw, DayType.WEEKEND)
        assert len(wd) == 10 and len(we) == 4
        assert all(d % 7 < 5 for d in wd)
        assert all(d % 7 >= 5 for d in we)
        # Most recent first.
        assert wd == sorted(wd, reverse=True)

    def test_history_days_limit(self):
        est = WindowedKernelEstimator(config=EstimatorConfig(history_days=3))
        trace = flat_trace(n_days=14)
        days = est.history_days(trace, ClockWindow.from_hours(8, 2), DayType.WEEKDAY)
        assert len(days) == 3
        assert days == [11, 10, 9]

    def test_window_crossing_midnight_excludes_last_day(self):
        est = WindowedKernelEstimator()
        trace = flat_trace(n_days=8)  # days 0..7
        cw = ClockWindow.from_hours(22, 4)  # ends 02:00 next day
        days = est.history_days(trace, cw, DayType.WEEKDAY)
        # Day 7's window would end on day 8, outside the trace.
        assert 7 not in days
        assert 4 in days  # Friday 22:00 -> Saturday 02:00 is still in-trace

    def test_day_samples_have_lookback(self):
        # One idle visit per day, measured from the lookback start: its
        # holding spans the 60-sample lookback plus the 60-sample window.
        est = WindowedKernelEstimator(config=EstimatorConfig(lookback=3600.0))
        trace = flat_trace(n_days=7, period=60.0)
        samples = est.day_samples(trace, ClockWindow.from_hours(8, 1), DayType.WEEKDAY)
        assert len(samples) == 5
        for sample in samples:
            assert sample.observations == [VisitObservation(1, 60 + 60, None)]
            assert sample.start_state is State.S1

    def test_lookback_clipped_at_trace_start(self):
        est = WindowedKernelEstimator(config=EstimatorConfig(lookback=7200.0))
        trace = flat_trace(n_days=7, period=60.0)
        cw = ClockWindow.from_hours(1, 1)
        # Only 1 h exists before 01:00 on day 0; later days get the full 2 h.
        assert est.day_sample(trace, cw, 0).observations == [
            VisitObservation(1, 60 + 60, None)
        ]
        assert est.day_sample(trace, cw, 1).observations == [
            VisitObservation(1, 120 + 60, None)
        ]

    def test_lookback_trimmed_to_whole_steps(self):
        # 7 lookback samples at step_multiple 5: one whole coarse step of
        # lookback survives, so the window start stays on a step boundary.
        est = WindowedKernelEstimator(
            config=EstimatorConfig(lookback=420.0, step_multiple=5)
        )
        trace = flat_trace(n_days=7, period=60.0)
        sample = est.day_sample(trace, ClockWindow.from_hours(8, 1), 1)
        assert sample.observations == [VisitObservation(1, 1 + 12, None)]


class TestEstimation:
    def test_flat_trace_yields_zero_hazard(self):
        est = WindowedKernelEstimator()
        trace = flat_trace()
        kern = est.estimate(trace, ClockWindow.from_hours(8, 2), DayType.WEEKDAY)
        assert kern.k.sum() == pytest.approx(0.0)

    def test_daily_failure_window_sees_hazard(self):
        est = WindowedKernelEstimator()
        # Overload covers the rest of the window, so each day contributes
        # exactly one S1 visit that certainly transitions to S3.
        trace = trace_with_daily_failure(fail_minutes=180)
        kern = est.estimate(trace, ClockWindow.from_hours(8, 3), DayType.WEEKDAY)
        assert kern.slot(1, 3).sum() > 0.9
        # The transition happens one hour (60 steps) into the window.
        assert kern.slot(1, 3)[60] == pytest.approx(kern.slot(1, 3).sum())

    def test_post_failure_visits_dilute_hazard(self):
        est = WindowedKernelEstimator()
        # A short overload splits each day into a failing S1 visit and a
        # censored post-failure S1 visit: pooled per-visit hazard is 1/2.
        trace = trace_with_daily_failure(fail_minutes=5)
        kern = est.estimate(trace, ClockWindow.from_hours(8, 3), DayType.WEEKDAY)
        assert kern.slot(1, 3).sum() == pytest.approx(0.5)

    def test_unaffected_window_sees_no_hazard(self):
        est = WindowedKernelEstimator()
        trace = trace_with_daily_failure(fail_hour=9.0)
        kern = est.estimate(trace, ClockWindow.from_hours(14, 3), DayType.WEEKDAY)
        assert kern.k.sum() == pytest.approx(0.0)

    def test_estimate_from_absolute_window(self):
        est = WindowedKernelEstimator()
        trace = trace_with_daily_failure(n_days=10, fail_minutes=180)
        target = ClockWindow.from_hours(8, 3).on_day(12)  # future day
        kern = est.estimate(trace, target)
        assert kern.slot(1, 3).sum() > 0.9

    def test_clock_window_requires_day_type(self):
        est = WindowedKernelEstimator()
        with pytest.raises(ValueError):
            est.estimate(flat_trace(), ClockWindow.from_hours(8, 1))

    def test_step_multiple_changes_horizon(self):
        trace = flat_trace(period=60.0)
        cw = ClockWindow.from_hours(8, 1)
        k1 = WindowedKernelEstimator().estimate(trace, cw, DayType.WEEKDAY)
        k5 = WindowedKernelEstimator(config=EstimatorConfig(step_multiple=5)).estimate(
            trace, cw, DayType.WEEKDAY
        )
        assert k1.horizon == 60
        assert k5.horizon == 12
        assert k5.step == pytest.approx(300.0)

    def test_step_property(self):
        est = WindowedKernelEstimator(config=EstimatorConfig(step_multiple=4))
        assert est.step(flat_trace(period=30.0)) == pytest.approx(120.0)


class TestTypicalInitialState:
    def test_idle_start_is_s1(self):
        est = WindowedKernelEstimator()
        trace = flat_trace(load=0.05)
        s = est.typical_initial_state(trace, ClockWindow.from_hours(8, 1), DayType.WEEKDAY)
        assert s is State.S1

    def test_busy_start_is_s2(self):
        est = WindowedKernelEstimator()
        trace = flat_trace(load=0.45)
        s = est.typical_initial_state(trace, ClockWindow.from_hours(8, 1), DayType.WEEKDAY)
        assert s is State.S2

    def test_start_state_is_coarse_step_zero(self):
        # Idle except the second sample of every 08:00 window: the raw
        # first sample is S1, but the first coarse step at step_multiple
        # 5 is its most severe sample, S2.
        trace = flat_trace(load=0.05)
        trace.load[int(8 * 3600 / 60) + 1 :: int(SECONDS_PER_DAY / 60)] = 0.45
        cw = ClockWindow.from_hours(8, 1)
        fine = WindowedKernelEstimator()
        coarse = WindowedKernelEstimator(config=EstimatorConfig(step_multiple=5))
        assert fine.typical_initial_state(trace, cw, DayType.WEEKDAY) is State.S1
        assert coarse.typical_initial_state(trace, cw, DayType.WEEKDAY) is State.S2

    def test_no_history_falls_back_to_s1(self):
        est = WindowedKernelEstimator()
        trace = flat_trace(n_days=2, start_day=5)  # only weekend days 5, 6
        s = est.typical_initial_state(trace, ClockWindow.from_hours(8, 1), DayType.WEEKDAY)
        assert s is State.S1


class TestOnSyntheticTrace:
    def test_estimation_runs_on_synthetic(self, short_trace):
        est = WindowedKernelEstimator()
        kern = est.estimate(short_trace, ClockWindow.from_hours(12, 2), DayType.WEEKDAY)
        assert kern.horizon == 240  # 2 h at 30 s
        assert 0.0 <= kern.k.sum() <= 2.0

    def test_busy_hours_have_more_hazard_than_night(self, long_trace):
        est = WindowedKernelEstimator()
        k_day = est.estimate(long_trace, ClockWindow.from_hours(13, 3), DayType.WEEKDAY)
        k_night = est.estimate(long_trace, ClockWindow.from_hours(2, 3), DayType.WEEKDAY)
        day_fail = sum(k_day.slot(s, j).sum() for s in (1, 2) for j in (3, 4, 5))
        night_fail = sum(k_night.slot(s, j).sum() for s in (1, 2) for j in (3, 4, 5))
        assert day_fail > night_fail
