"""The scheduler's batched TR path: one fleet solve per placement.

Candidate scoring (and the re-placement best-TR sweep) asks the service
for the whole pool in one ``predict_batch`` call.  If that call fails
(or the service has no batch op), every candidate is scored
``fallback_tr`` and placement still proceeds.  Placement decisions must
not depend on whether the batched or the scalar solver answered.
"""

import numpy as np
import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.windows import AbsoluteWindow, SECONDS_PER_DAY
from repro.sched import JobManager, SchedConfig, STATE_PLACED
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace


class ScalarOnlyService:
    """A fake with no ``predict_batch`` at all (pre-fleet surface)."""

    def __init__(self, trs):
        self.trs = dict(trs)
        self.scalar_calls = 0

    @property
    def machine_ids(self):
        return list(self.trs)

    def predict(self, machine, window):
        self.scalar_calls += 1
        return self.trs[machine]


class CountingBatchService(ScalarOnlyService):
    """A fake that answers batches and counts which path was used."""

    def __init__(self, trs):
        super().__init__(trs)
        self.batch_calls = 0

    def predict_batch(self, machines, window):
        self.batch_calls += 1
        return {m: self.trs[m] for m in machines}


class FailingBatchService(CountingBatchService):
    def predict_batch(self, machines, window):
        self.batch_calls += 1
        raise RuntimeError("fleet solver unavailable")


def mk_manager(service, clock, **cfg):
    return JobManager(
        service,
        config=SchedConfig(**cfg),
        clock=lambda: clock[0],
        node="test",
    )


@pytest.fixture()
def clock():
    return [0.0]


class TestBatchPath:
    def test_batch_service_is_asked_once_per_placement(self, clock):
        svc = CountingBatchService({"good": 0.9, "bad": 0.3, "meh": 0.5})
        m = mk_manager(svc, clock)
        out = m.submit("j1", total_cpu_seconds=100.0, cpu=0.5)
        assert out["record"]["machine"] == "good"
        assert svc.batch_calls == 1
        assert svc.scalar_calls == 0

    def test_scalar_only_service_falls_back(self, clock):
        svc = ScalarOnlyService({"good": 0.9, "bad": 0.3})
        m = mk_manager(svc, clock, fallback_tr=0.4)
        out = m.submit("j1", total_cpu_seconds=100.0, cpu=0.5)
        assert out["record"]["state"] == STATE_PLACED
        assert svc.scalar_calls == 0
        window = AbsoluteWindow(0.0, 100.0)
        assert m._trs(["good", "bad"], window) == {"good": 0.4, "bad": 0.4}

    def test_batch_failure_scores_every_candidate_with_fallback_tr(self, clock):
        svc = FailingBatchService({"good": 0.9, "bad": 0.3})
        m = mk_manager(svc, clock, fallback_tr=0.4)
        out = m.submit("j1", total_cpu_seconds=100.0, cpu=0.5)
        assert out["record"]["state"] == STATE_PLACED
        assert svc.batch_calls == 1
        assert svc.scalar_calls == 0
        window = AbsoluteWindow(0.0, 100.0)
        assert m._trs(["good", "bad"], window) == {"good": 0.4, "bad": 0.4}

    def test_replace_best_tr_uses_batch(self, clock):
        svc = CountingBatchService({"a": 0.9, "b": 0.8, "c": 0.2})
        m = mk_manager(svc, clock)
        m.submit("j1", total_cpu_seconds=1000.0, cpu=0.5)
        before = svc.batch_calls
        m.replace(["a"], reason="node_down")
        assert svc.batch_calls > before
        assert m.status("j1")["machine"] in ("b", "c")


def idle_trace(mid, n_days=10, period=60.0, fail_hour=None):
    n_per_day = int(SECONDS_PER_DAY / period)
    load = np.full(n_days * n_per_day, 0.05)
    if fail_hour is not None:
        i0 = int(fail_hour * 3600 / period)
        for d in range(n_days):
            load[d * n_per_day + i0 : d * n_per_day + i0 + 15] = 0.95
    return MachineTrace(mid, 0.0, period, load, np.full(load.shape, 400.0))


class ScalarBackedService:
    """A real service whose ``predict_batch`` is N scalar ``predict`` calls."""

    def __init__(self, service):
        self.service = service

    @property
    def machine_ids(self):
        return self.service.machine_ids

    def predict_batch(self, machines, window):
        return {m: self.service.predict(m, window) for m in machines}


class TestRealServiceIdentity:
    def test_placements_identical_batch_vs_scalar(self):
        """Same jobs, real service: both TR solvers place identically."""
        records = {}
        for batch in (True, False):
            svc = AvailabilityService(
                estimator_config=EstimatorConfig(step_multiple=5)
            )
            for i in range(4):
                svc.register(idle_trace(f"m{i}", fail_hour=8.0 + i))
            clock = [7.0 * SECONDS_PER_DAY + 9 * 3600.0]
            m = JobManager(
                svc if batch else ScalarBackedService(svc),
                clock=lambda: clock[0],
                node="test",
            )
            for j in range(3):
                m.submit(f"j{j}", total_cpu_seconds=2 * 3600.0, cpu=0.4)
            records[batch] = [
                (r["job"], r["machine"], r["state"]) for r in m.list_jobs()
            ]
        assert records[True] == records[False]
