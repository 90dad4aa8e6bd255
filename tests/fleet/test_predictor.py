"""FleetPredictor caching, invalidation, and service-level equality."""

import numpy as np
import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.windows import (
    SECONDS_PER_DAY,
    AbsoluteWindow,
    ClockWindow,
    DayType,
)
from repro.fleet.predictor import MAX_WINDOWS
from repro.obs.instruments import instrument
from repro.obs.metrics import scoped_registry
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace

WINDOW = ClockWindow.from_hours(8, 3)


def idle_trace(mid, n_days=14, period=60.0, fail_hour=None, start=0.0):
    n_per_day = int(SECONDS_PER_DAY / period)
    load = np.full(n_days * n_per_day, 0.05)
    if fail_hour is not None:
        i0 = int(fail_hour * 3600 / period)
        for d in range(n_days):
            load[d * n_per_day + i0 : d * n_per_day + i0 + 15] = 0.95
    return MachineTrace(mid, start, period, load, np.full(load.shape, 400.0))


def scalar_loop(service):
    """One scalar ``predict`` per machine: the reference for the batch path."""
    return {m: service.predict(m, WINDOW, DayType.WEEKDAY) for m in service.machine_ids}


@pytest.fixture()
def service():
    svc = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
    svc.register(idle_trace("safe"))
    svc.register(idle_trace("risky", fail_hour=9.0))
    svc.register(idle_trace("other", fail_hour=12.0))
    return svc


class TestFleetScanEquality:
    def test_scan_matches_scalar_predicts(self, service):
        scan = service.fleet_scan(WINDOW, DayType.WEEKDAY)
        assert scan.machine_ids == ("other", "risky", "safe")
        for mid in service.machine_ids:
            scalar = service.predict(mid, WINDOW, DayType.WEEKDAY)
            assert scan.trs()[mid] == pytest.approx(scalar, abs=1e-9)

    def test_predict_all_batch_equals_scalar_loop(self, service):
        batched = service.predict_all(WINDOW, DayType.WEEKDAY)
        scalar = scalar_loop(service)
        assert set(batched) == set(scalar)
        for mid, tr in scalar.items():
            assert batched[mid] == pytest.approx(tr, abs=1e-9)

    def test_rank_uses_batched_path_and_orders_identically(self, service):
        ranking = service.rank(WINDOW, DayType.WEEKDAY)
        scalar = scalar_loop(service)
        expected = sorted(scalar.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [r.machine_id for r in ranking] == [m for m, _ in expected]

    def test_predict_batch_subset(self, service):
        trs = service.predict_batch(["safe", "risky"], WINDOW, DayType.WEEKDAY)
        assert set(trs) == {"safe", "risky"}
        assert trs["safe"] == pytest.approx(
            service.predict("safe", WINDOW, DayType.WEEKDAY), abs=1e-9
        )

    def test_unknown_machine_raises_keyerror(self, service):
        with pytest.raises(KeyError, match="ghost"):
            service.predict_batch(["safe", "ghost"], WINDOW, DayType.WEEKDAY)

    def test_tr_at_reads_subhorizon_profile(self, service):
        scan = service.fleet_scan(WINDOW, DayType.WEEKDAY)
        full = scan.trs()["safe"]
        shorter = scan.tr_at("safe", 3600.0)
        assert shorter >= full  # profiles are non-increasing
        assert scan.tr_at("safe", 10 * WINDOW.duration) == pytest.approx(full)
        with pytest.raises(KeyError, match="not in this scan"):
            scan.tr_at("ghost", 60.0)

    def test_absolute_window_resolves_day_type(self, service):
        # Day 0 of the trace grid is a Monday; 9 h into day 1 is a weekday.
        scan = service.fleet_scan(
            AbsoluteWindow(SECONDS_PER_DAY + 9 * 3600.0, 2 * 3600.0)
        )
        assert len(scan.machine_ids) == 3


class TestFleetCache:
    def test_steady_state_scan_is_cached(self, service):
        first = service.fleet_scan(WINDOW, DayType.WEEKDAY)
        second = service.fleet_scan(WINDOW, DayType.WEEKDAY)
        assert second is first

    def test_subset_scan_does_not_clobber_full_scan(self, service):
        full = service.fleet_scan(WINDOW, DayType.WEEKDAY)
        subset = service.fleet_scan(WINDOW, DayType.WEEKDAY, machines=["safe"])
        assert subset.machine_ids == ("safe",)
        assert service.fleet_scan(WINDOW, DayType.WEEKDAY) is full

    def test_scan_reuses_the_rows_predict_built(self, service):
        with scoped_registry():
            for mid in service.machine_ids:
                service.predict(mid, WINDOW, DayType.WEEKDAY)
            service.fleet_scan(WINDOW, DayType.WEEKDAY)
            assert instrument("fleet_kernels_rebuilt_total").value == 0
            assert instrument("fleet_kernels_reused_total").value == 3

    def test_extend_rebuilds_only_the_grown_machine(self, service):
        first = service.fleet_scan(WINDOW, DayType.WEEKDAY)
        service.extend_history(idle_trace("safe", n_days=15))
        second = service.fleet_scan(WINDOW, DayType.WEEKDAY)
        assert second is not first
        # Unchanged machines answer identically (their rows were reused).
        assert second.trs()["risky"] == first.trs()["risky"]

    def test_register_replace_invalidates(self, service):
        before = service.fleet_scan(WINDOW, DayType.WEEKDAY).trs()["safe"]
        service.register(idle_trace("safe", fail_hour=9.0))
        after = service.fleet_scan(WINDOW, DayType.WEEKDAY).trs()["safe"]
        assert after < before

    def test_unregister_shrinks_the_scan(self, service):
        service.fleet_scan(WINDOW, DayType.WEEKDAY)
        service.unregister("other")
        scan = service.fleet_scan(WINDOW, DayType.WEEKDAY)
        assert scan.machine_ids == ("risky", "safe")

    def test_empty_registry_scans_empty(self):
        svc = AvailabilityService()
        scan = svc.fleet_scan(WINDOW, DayType.WEEKDAY)
        assert scan.machine_ids == ()
        assert scan.trs() == {}
        assert scan.ranking() == []

    def test_clock_window_requires_day_type(self, service):
        with pytest.raises(ValueError, match="day type"):
            service.fleet_scan(WINDOW)

    def test_window_cache_is_lru_bounded(self, service):
        fleet = service._fleet
        for h in range(1, MAX_WINDOWS + 3):
            service.fleet_scan(ClockWindow.from_hours(8, h), DayType.WEEKDAY)
        assert len(fleet) == MAX_WINDOWS
