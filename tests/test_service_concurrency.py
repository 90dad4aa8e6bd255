"""Thread-safety contract of AvailabilityService.predict.

The serving tier runs predictions on a ThreadPoolExecutor against one
shared service; these tests lock in that concurrent queries (a) return
exactly the serial results and (b) keep the incremental predictor's
cache statistics consistent (each (window, day) is classified once,
everything else is a hit).
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.windows import SECONDS_PER_DAY, ClockWindow, DayType
from repro.obs.metrics import scoped_registry
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace


def busy_trace(mid, seed, n_days=14, period=120.0):
    n_per_day = int(SECONDS_PER_DAY / period)
    rng = np.random.default_rng(seed)
    load = np.clip(rng.beta(2, 6, n_days * n_per_day), 0.0, 1.0)
    return MachineTrace(mid, 0.0, period, load, np.full(load.shape, 400.0))


def chunk(trace, i, j):
    """Samples ``i`` up to ``j`` of a trace, on its grid."""
    return MachineTrace(
        trace.machine_id, trace.start_time + i * trace.sample_period,
        trace.sample_period, trace.load[i:j], trace.free_mem_mb[i:j], trace.up[i:j],
    )


def build_service():
    svc = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
    for i in range(4):
        svc.register(busy_trace(f"m{i}", seed=100 + i))
    return svc


WINDOWS = [ClockWindow.from_hours(h, 2.0) for h in (6.0, 9.0, 13.5, 20.0)]
QUERIES = [
    (f"m{i}", w, dt)
    for i in range(4)
    for w in WINDOWS
    for dt in (DayType.WEEKDAY, DayType.WEEKEND)
]


class TestConcurrentPredict:
    def test_results_equal_serial(self):
        serial_svc = build_service()
        serial = {
            (m, w, dt): serial_svc.predict(m, w, dt) for (m, w, dt) in QUERIES
        }

        concurrent_svc = build_service()
        start = threading.Barrier(8)

        def worker(offset):
            start.wait(timeout=10)
            out = {}
            # every worker hits every query, rotated so threads collide
            # on the same (machine, window) entries in different orders
            n = len(QUERIES)
            for j in range(n):
                q = QUERIES[(j + offset * 3) % n]
                out[q] = concurrent_svc.predict(*q)
            return out

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result() for f in [pool.submit(worker, i) for i in range(8)]]

        for out in results:
            for q, tr in out.items():
                assert tr == pytest.approx(serial[q], abs=1e-12), q

    def test_cache_stats_not_corrupted(self):
        with scoped_registry() as reg:
            svc = build_service()
            start = threading.Barrier(8)

            def worker(offset):
                start.wait(timeout=10)
                n = len(QUERIES)
                for j in range(n):
                    svc.predict(*QUERIES[(j + offset * 5) % n])

            with ThreadPoolExecutor(max_workers=8) as pool:
                for f in [pool.submit(worker, i) for i in range(8)]:
                    f.result()

            predictor = svc._predictor
            hits = reg.get("incremental_cache_hits_total").value
            misses = reg.get("incremental_cache_misses_total").value
            # Each (machine, window, dtype, day) is classified exactly once
            # across all 8 threads; all other touches are hits.
            assert misses == predictor.days_classified
            assert hits == predictor.days_reused
            serial = build_service()
            for q in QUERIES:
                serial.predict(*q)
            assert predictor.days_classified == serial._predictor.days_classified
            total_touches = predictor.days_classified + predictor.days_reused
            eight_rounds = 8 * (
                serial._predictor.days_classified + serial._predictor.days_reused
            )
            assert total_touches == eight_rounds

    def test_concurrent_predict_with_register(self):
        svc = build_service()
        stop = threading.Event()
        errors = []

        def churn():
            i = 0
            while not stop.is_set():
                try:
                    svc.register(busy_trace(f"extra{i % 3}", seed=500 + i % 3))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                i += 1

        t = threading.Thread(target=churn)
        t.start()
        try:
            for _ in range(5):
                for q in QUERIES[:8]:
                    svc.predict(*q)
        finally:
            stop.set()
            t.join(timeout=10)
        assert not errors


class TestConcurrentScans:
    def test_scans_and_predicts_racing_appends_leave_no_stale_answer(self):
        """Rows and scan memos built while histories grow never outlive the growth."""
        full = {f"m{i}": busy_trace(f"m{i}", seed=200 + i, n_days=20) for i in range(3)}
        per_day = int(SECONDS_PER_DAY / 120.0)
        svc = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
        for mid, trace in full.items():
            svc.register(chunk(trace, 0, 12 * per_day))
        windows = [(w, DayType.WEEKDAY) for w in WINDOWS]
        stop = threading.Event()
        errors = []

        def read(offset):
            i = offset
            while not stop.is_set():
                try:
                    w, dt = windows[i % len(windows)]
                    svc.fleet_scan(w, dt)
                    svc.predict(f"m{i % 3}", w, dt)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                i += 1

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        try:
            for t in readers:
                t.start()
            # One writer, as the dispatcher serializes writes: grow every
            # machine by a third of a day at a time, completing days.
            for n in range(12 * per_day, 20 * per_day, per_day // 3):
                for mid, trace in full.items():
                    svc.append_samples(chunk(trace, n, n + per_day // 3))
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in readers)
        assert not errors
        fresh = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
        for mid, trace in full.items():
            fresh.register(chunk(trace, 0, 20 * per_day))
        for w, dt in windows:
            assert svc.fleet_scan(w, dt).trs() == pytest.approx(
                fresh.fleet_scan(w, dt).trs(), abs=1e-9
            )
            for mid in full:
                assert svc.predict(mid, w, dt) == pytest.approx(
                    fresh.predict(mid, w, dt), abs=1e-12
                )
