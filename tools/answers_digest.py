#!/usr/bin/env python3
"""Print the count and sha256 of two fixed sets of served answers.

A change to caching or estimation code must not move a single served
answer.  Run this script against two source trees and compare the
lines it prints::

    PYTHONPATH=/path/to/other/checkout/src python tools/answers_digest.py
    PYTHONPATH=src python tools/answers_digest.py

It imports ``repro`` from ``PYTHONPATH`` only (the source tree in use is
named on stderr).  Each answer is hashed exactly: floats by ``repr``,
fleet scans by the raw bytes of every array.

* ``grid`` — a default ``AvailabilityService`` over
  ``synthesize_testbed(20, n_days=14, sample_period=120.0, seed=1)``.
  For every start hour 0-23, length 1-4 h and both day types: one
  ``predict`` and one ``reliable_horizon`` per machine, then one
  ``fleet_scan`` (7,872 answers).
* ``stream`` — 300 steps over four machines with 10 base days.  Each
  step appends one hour of samples to one machine (some complete a day,
  most do not), then reads ``predict`` and ``reliable_horizon`` on it;
  every fifth step also scans the fleet.  One machine is promoted to
  another model config at step 100 and reverted at step 200 (660
  answers).
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

import repro
from repro.core.estimator import EstimatorConfig
from repro.core.windows import ClockWindow, DayType
from repro.service import AvailabilityService
from repro.traces.synthesis import synthesize_testbed
from repro.traces.trace import MachineTrace

DAY_TYPES = (DayType.WEEKDAY, DayType.WEEKEND)


class Digest:
    """Counts answers and folds each one's exact encoding into a sha256."""

    def __init__(self) -> None:
        self.count = 0
        self._sha = hashlib.sha256()

    def add(self, *fields: object) -> None:
        self.count += 1
        self._sha.update(repr(fields).encode())

    def add_scan(self, scan) -> None:
        self.add("scan", scan.machine_ids, scan.clock, scan.day_type)
        for arr in (scan.tr, scan.fail, scan.profiles, scan.horizons, scan.steps,
                    scan.init_states):
            arr = np.ascontiguousarray(arr)
            self._sha.update(f"{arr.dtype}{arr.shape}".encode())
            self._sha.update(arr.tobytes())

    def line(self, name: str) -> str:
        return f"{name}: {self.count} answers sha256 {self._sha.hexdigest()}"


def samples(trace: MachineTrace, i: int, j: int) -> MachineTrace:
    """Samples ``i`` up to ``j`` of a trace, on its grid."""
    return MachineTrace(
        trace.machine_id, trace.start_time + i * trace.sample_period,
        trace.sample_period, trace.load[i:j], trace.free_mem_mb[i:j], trace.up[i:j],
    )


def grid_answers() -> Digest:
    digest = Digest()
    service = AvailabilityService()
    for trace in synthesize_testbed(20, n_days=14, sample_period=120.0, seed=1):
        service.register(trace)
    for hour in range(24):
        for hours in range(1, 5):
            window = ClockWindow.from_hours(hour, hours)
            for dtype in DAY_TYPES:
                for m in service.machine_ids:
                    digest.add("predict", m, window, dtype,
                               service.predict(m, window, dtype))
                for m in service.machine_ids:
                    digest.add("horizon", m, window, dtype, service.reliable_horizon(
                        m, window, dtype, tr_threshold=0.8))
                digest.add_scan(service.fleet_scan(window, dtype))
    return digest


def stream_answers() -> Digest:
    digest = Digest()
    full = synthesize_testbed(4, n_days=14, sample_period=300.0, seed=2)
    hour = int(3600 / 300.0)
    base = 10 * 24 * hour
    service = AvailabilityService()
    for trace in full:
        service.register(samples(trace, 0, base))
    ids = service.machine_ids
    grown = dict.fromkeys(ids, base)
    windows = [ClockWindow.from_hours(h, t) for h, t in ((8, 2), (9, 3), (13, 4), (22, 3))]
    for step in range(300):
        m = ids[step % len(ids)]
        service.append_samples(samples(full[m], grown[m], grown[m] + hour))
        grown[m] += hour
        if step == 100:
            service.set_model_config(
                ids[0], estimator_config=EstimatorConfig(step_multiple=5, history_days=4)
            )
        elif step == 200:
            service.set_model_config(ids[0])
        window = windows[step // len(ids) % len(windows)]
        dtype = DAY_TYPES[step // 7 % 2]
        digest.add("predict", step, m, service.predict(m, window, dtype))
        digest.add("horizon", step, m, service.reliable_horizon(m, window, dtype))
        if step % 5 == 0:
            digest.add_scan(service.fleet_scan(windows[step // 5 % len(windows)], dtype))
    return digest


def main() -> int:
    print(f"repro imported from {repro.__file__}", file=sys.stderr)
    print(grid_answers().line("grid"))
    print(stream_answers().line("stream"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
