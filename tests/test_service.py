"""Tests for the multi-machine availability service."""

import numpy as np
import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.predictor import TemporalReliabilityPredictor
from repro.core.states import State
from repro.core.windows import SECONDS_PER_DAY, ClockWindow, DayType
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace


def idle_trace(mid, n_days=14, period=60.0, fail_hour=None):
    n_per_day = int(SECONDS_PER_DAY / period)
    load = np.full(n_days * n_per_day, 0.05)
    if fail_hour is not None:
        i0 = int(fail_hour * 3600 / period)
        for d in range(n_days):
            load[d * n_per_day + i0 : d * n_per_day + i0 + 15] = 0.95
    return MachineTrace(mid, 0.0, period, load, np.full(load.shape, 400.0))


@pytest.fixture()
def service():
    svc = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
    svc.register(idle_trace("safe"))
    svc.register(idle_trace("risky", fail_hour=9.0))
    return svc


WINDOW = ClockWindow.from_hours(8, 3)


class TestRegistry:
    def test_membership(self, service):
        assert len(service) == 2
        assert "safe" in service and "ghost" not in service
        assert service.machine_ids == ["safe", "risky"]

    def test_unregister(self, service):
        service.unregister("safe")
        assert "safe" not in service
        with pytest.raises(KeyError):
            service.predict("safe", WINDOW, DayType.WEEKDAY)

    def test_unknown_machine(self, service):
        with pytest.raises(KeyError):
            service.predict("ghost", WINDOW, DayType.WEEKDAY)

    def test_reregister_invalidates(self, service):
        before = service.predict("safe", WINDOW, DayType.WEEKDAY)
        service.register(idle_trace("safe", fail_hour=9.0))
        after = service.predict("safe", WINDOW, DayType.WEEKDAY)
        assert after < before

    def test_reregister_invalidates_override_caches(self):
        # A promoted override keeps its own day cache; replacing the
        # history must drop it, or predict and fleet_scan (whose rows are
        # rebuilt from that cache) keep serving the old history.
        override = EstimatorConfig(step_multiple=10, history_days=5)
        svc = AvailabilityService()
        svc.register(idle_trace("m"))
        svc.set_model_config("m", estimator_config=override)
        svc.predict("m", WINDOW, DayType.WEEKDAY)
        svc.fleet_scan(WINDOW, DayType.WEEKDAY)
        replacement = idle_trace("m", fail_hour=9.0)
        svc.register(replacement)
        fresh = AvailabilityService()
        fresh.register(replacement)
        fresh.set_model_config("m", estimator_config=override)
        expected = fresh.predict("m", WINDOW, DayType.WEEKDAY)
        assert expected < 0.99
        assert svc.predict("m", WINDOW, DayType.WEEKDAY) == expected
        assert svc.fleet_scan(WINDOW, DayType.WEEKDAY).trs()["m"] == pytest.approx(
            expected, abs=1e-9
        )

    def test_reregister_emits_machine_replaced_event(self, service):
        from repro.obs.events import scoped_event_log
        from repro.obs.metrics import scoped_registry

        with scoped_registry(), scoped_event_log() as log:
            service.register(idle_trace("safe", fail_hour=9.0))
            events = log.events("machine_replaced")
            assert len(events) == 1
            assert events[0].severity == "warning"
            assert events[0].fields["machine_id"] == "safe"
            # A first-time registration is not a replacement.
            service.register(idle_trace("brand-new"))
            assert len(log.events("machine_replaced")) == 1

    def test_registered_machines_gauge_tracks_registry(self):
        from repro.obs.metrics import scoped_registry

        with scoped_registry() as reg:
            svc = AvailabilityService()
            svc.register(idle_trace("a"))
            svc.register(idle_trace("b"))
            gauge = reg.get("service_registered_machines")
            assert gauge.value == 2.0
            svc.unregister("a")
            assert gauge.value == 1.0

    def test_extend_history_accepts_growth(self, service):
        grown = idle_trace("safe", n_days=21)
        service.extend_history(grown)
        assert service.predict("safe", WINDOW, DayType.WEEKDAY) == pytest.approx(1.0)

    def test_extend_history_rejects_mismatch(self, service):
        other = MachineTrace(
            "safe", 0.0, 30.0, np.full(100, 0.05), np.full(100, 400.0)
        )
        with pytest.raises(ValueError):
            service.extend_history(other)

    def test_extend_history_of_unknown_registers(self):
        svc = AvailabilityService()
        svc.extend_history(idle_trace("new"))
        assert "new" in svc

    def test_extend_history_rejects_non_prefix_data(self, service):
        # Same grid and longer, but the overlapping samples differ — the
        # kept per-day caches would silently serve stale observations.
        n = 21 * 1440
        impostor = MachineTrace(
            "safe", 0.0, 60.0, np.full(n, 0.5), np.full(n, 400.0)
        )
        with pytest.raises(ValueError, match="not a prefix-extension"):
            service.extend_history(impostor)

    def test_extend_history_rejects_changed_interior_sample(self, service):
        grown = idle_trace("safe", n_days=21)
        idx = 3 * 1440 + 9 * 60  # 09:00 on day 3, well inside the overlap
        grown.load[idx] = 0.95
        with pytest.raises(ValueError, match=f"sample {idx} differs"):
            service.extend_history(grown)
        assert service.predict("safe", WINDOW, DayType.WEEKDAY) == pytest.approx(1.0)

    def test_extend_history_rejects_changed_tail_sample(self, service):
        grown = idle_trace("safe", n_days=21)
        old_n = idle_trace("safe").n_samples
        grown.load[old_n - 1] = 0.75  # corrupt the last overlapping sample
        with pytest.raises(ValueError, match=f"sample {old_n - 1}"):
            service.extend_history(grown)


class TestQueries:
    def test_predict_matches_batch(self, service):
        batch = TemporalReliabilityPredictor(
            idle_trace("risky", fail_hour=9.0),
            estimator_config=EstimatorConfig(step_multiple=5),
        )
        assert service.predict("risky", WINDOW, DayType.WEEKDAY) == pytest.approx(
            batch.predict(WINDOW, DayType.WEEKDAY), abs=1e-12
        )

    def test_predict_all_and_rank(self, service):
        trs = service.predict_all(WINDOW, DayType.WEEKDAY)
        assert set(trs) == {"safe", "risky"}
        assert trs["safe"] > trs["risky"]
        ranking = service.rank(WINDOW, DayType.WEEKDAY)
        assert [r.machine_id for r in ranking] == ["safe", "risky"]
        assert ranking[0].tr >= ranking[1].tr

    def test_select_gang(self, service):
        chosen, survival = service.select(WINDOW, DayType.WEEKDAY, k=2)
        assert chosen[0] == "safe"
        assert survival == pytest.approx(
            service.predict("safe", WINDOW, DayType.WEEKDAY)
            * service.predict("risky", WINDOW, DayType.WEEKDAY)
        )

    def test_select_too_many(self, service):
        with pytest.raises(ValueError):
            service.select(WINDOW, DayType.WEEKDAY, k=5)

    def test_interval(self, service):
        iv = service.interval("risky", WINDOW, DayType.WEEKDAY, n_resamples=40, rng=1)
        assert 0.0 <= iv.lower <= iv.point <= iv.upper <= 1.0

    def test_explicit_init_state(self, service):
        assert service.predict("safe", WINDOW, DayType.WEEKDAY, init_state=State.S3) == 0.0

    def test_absolute_window(self, service):
        aw = WINDOW.on_day(15)  # a future Tuesday
        assert service.predict("safe", aw) == pytest.approx(1.0)


class TestReliableHorizon:
    def test_safe_machine_full_horizon(self, service):
        h = service.reliable_horizon(
            "safe", ClockWindow.from_hours(8, 5), DayType.WEEKDAY, tr_threshold=0.9
        )
        assert h == pytest.approx(5 * 3600.0)

    def test_risky_machine_truncates_before_failure(self, service):
        # The daily failure hits at 9:00; a window starting 8:00 is only
        # reliable for about an hour.
        h = service.reliable_horizon(
            "risky", ClockWindow.from_hours(8, 5), DayType.WEEKDAY, tr_threshold=0.9
        )
        assert 0.0 < h <= 1.25 * 3600.0

    def test_threshold_validation(self, service):
        with pytest.raises(ValueError):
            service.reliable_horizon(
                "safe", ClockWindow.from_hours(8, 5), DayType.WEEKDAY, tr_threshold=0.0
            )

    def test_requires_day_type_for_clock_window(self, service):
        with pytest.raises(ValueError):
            service.reliable_horizon("safe", ClockWindow.from_hours(8, 5))

    def test_monotone_in_threshold(self, service):
        hs = [
            service.reliable_horizon(
                "risky", ClockWindow.from_hours(8, 5), DayType.WEEKDAY, tr_threshold=th
            )
            for th in (0.5, 0.9, 0.99)
        ]
        assert hs[0] >= hs[1] >= hs[2]
