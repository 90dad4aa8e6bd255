"""Incrementally maintained fleet tensors over a service's registry.

:class:`FleetPredictor` sits between :class:`~repro.service.AvailabilityService`
and the batched solver: for a query window it stacks every requested
machine's kernel into one :class:`~repro.fleet.kernel.FleetKernel`,
solves the whole fleet in one pass, and memoizes at two levels:

* **per-machine rows** — ``(n_samples fingerprint, kernel, init state)``
  per (window, machine).  A machine whose history has not grown since
  the last scan reuses its kernel; ingesting new samples changes
  ``n_samples`` and rebuilds just that row (through the service's
  :class:`~repro.core.online.IncrementalPredictor`, so only *new days*
  are re-classified).
* **whole scans** — if no row changed and the machine set is identical,
  the previous :class:`FleetScan` is returned as-is; a steady-state
  rank/select costs only the fingerprint sweep.

Replacing a history out-of-band (``register`` over an existing id) can
leave ``n_samples`` unchanged, so the service calls :meth:`invalidate`
on replace/unregister, mirroring the scalar predictor's contract.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import windows as win
from repro.core.smp import SmpKernel
from repro.core.windows import AbsoluteWindow, ClockWindow, DayType
from repro.fleet.kernel import FleetKernel, solve_fleet
from repro.obs.instruments import instrument
from repro.obs.tracing import start_span

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.service import AvailabilityService

__all__ = ["FleetPredictor", "FleetScan"]


@dataclass(frozen=True)
class FleetScan:
    """One solved fleet snapshot for one (window, day-type) query.

    Arrays are in ``machine_ids`` order.  ``profiles[i, m]`` is TR for a
    job of ``m`` steps of ``steps[i]`` seconds; entries past
    ``horizons[i]`` hold the machine's last real value.
    """

    machine_ids: tuple[str, ...]
    clock: ClockWindow
    day_type: DayType
    tr: np.ndarray  # (M,)
    fail: np.ndarray  # (M, 3) clipped, targets S3/S4/S5
    profiles: np.ndarray  # (M, max_horizon + 1)
    horizons: np.ndarray  # (M,) int steps
    steps: np.ndarray  # (M,) seconds
    init_states: np.ndarray  # (M,) int 1..5

    @cached_property
    def _index(self) -> dict[str, int]:
        return {mid: i for i, mid in enumerate(self.machine_ids)}

    def index(self, machine_id: str) -> int:
        """Array index of one machine."""
        try:
            return self._index[machine_id]
        except KeyError:
            raise KeyError(f"machine {machine_id!r} not in this scan") from None

    def trs(self) -> dict[str, float]:
        """``{machine_id: TR}`` for every scanned machine."""
        return {mid: float(t) for mid, t in zip(self.machine_ids, self.tr)}

    def ranking(self) -> list[tuple[str, float]]:
        """Machines best-first (ties broken by id), as the service ranks."""
        return sorted(self.trs().items(), key=lambda kv: (-kv[1], kv[0]))

    def tr_at(self, machine_id: str, duration: float) -> float:
        """TR of one machine for a *shorter* job of ``duration`` seconds.

        Reads the solved profile at the sub-horizon step count — no new
        solve.  Durations beyond the scanned window saturate at the
        machine's own horizon.
        """
        i = self.index(machine_id)
        m = min(int(self.horizons[i]), win.n_steps(duration, float(self.steps[i])))
        return float(self.profiles[i, m])


@dataclass
class _FleetWindow:
    """Cache state for one (clock window, day type)."""

    rows: dict[str, tuple[int, SmpKernel, int]] = field(default_factory=dict)
    scan: FleetScan | None = None


def _clock_key(clock: ClockWindow, dtype: DayType) -> tuple:
    return (clock.start, clock.duration, dtype)


class FleetPredictor:
    """Builds, caches and incrementally refreshes stacked fleet scans."""

    def __init__(
        self, service: "AvailabilityService", *, max_windows: int = 8
    ) -> None:
        if max_windows < 1:
            raise ValueError(f"max_windows must be positive, got {max_windows}")
        self._service = service
        self.max_windows = max_windows
        self._windows: OrderedDict[tuple, _FleetWindow] = OrderedDict()
        self._lock = threading.RLock()

    def invalidate(self, machine_id: str | None = None) -> None:
        """Drop cached rows and scans (for one machine, or all).

        Any cached whole-fleet scan that includes the machine is stale,
        so scans are dropped unconditionally; other machines keep their
        kernel rows.
        """
        with self._lock:
            for entry in self._windows.values():
                if machine_id is None:
                    entry.rows.clear()
                else:
                    entry.rows.pop(machine_id, None)
                entry.scan = None

    def __len__(self) -> int:
        """Number of cached (window, day-type) entries."""
        with self._lock:
            return len(self._windows)

    # ------------------------------------------------------------------ #

    def scan(
        self,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        *,
        machines: Sequence[str] | None = None,
    ) -> FleetScan:
        """Solve (or reuse) the fleet tensor for one query window.

        ``machines`` restricts the scan (results come back in sorted id
        order regardless); ``None`` scans every registered machine.
        Unknown machines raise ``KeyError`` like the scalar path.
        """
        t0 = time.perf_counter()
        clock, dtype = win.resolve_window(window, dtype)
        histories = self._service._histories
        if machines is None:
            ids = sorted(histories)
        else:
            ids = sorted(str(m) for m in machines)
            for mid in ids:
                if mid not in histories:
                    raise KeyError(f"machine {mid!r} is not registered")
        if not ids:
            return FleetScan(
                machine_ids=(),
                clock=clock,
                day_type=dtype,
                tr=np.zeros(0),
                fail=np.zeros((0, 3)),
                profiles=np.zeros((0, 1)),
                horizons=np.zeros(0, dtype=np.int64),
                steps=np.zeros(0),
                init_states=np.zeros(0, dtype=np.int64),
            )
        with start_span("fleet.scan", "fleet", machines=len(ids)) as span:
            with self._lock:
                entry = self._entry(_clock_key(clock, dtype))
                rebuilt = reused = 0
                for mid in ids:
                    trace = histories.get(mid)
                    if trace is None:  # unregistered between snapshot and now
                        raise KeyError(f"machine {mid!r} is not registered")
                    row = entry.rows.get(mid)
                    if row is not None and row[0] == trace.n_samples:
                        reused += 1
                        continue
                    # Per-machine lookup: a promoted override must feed its
                    # own kernel into the fleet tensor (set_model_config
                    # invalidates the stale row to force this rebuild).
                    kernel, init = self._service.predictor_for(mid).estimate(
                        trace, clock, dtype
                    )
                    entry.rows[mid] = (trace.n_samples, kernel, int(init))
                    rebuilt += 1
                cached = entry.scan
                if rebuilt == 0 and cached is not None and cached.machine_ids == tuple(ids):
                    scan = cached
                else:
                    scan = self._solve(entry, ids, clock, dtype)
                    # Cache whole-registry scans only: subset queries
                    # (scheduler candidate pools vary per job) would
                    # otherwise thrash the one scan slot.
                    if machines is None or len(ids) == len(histories):
                        entry.scan = scan
            if span is not None:
                span.set(rebuilt=rebuilt, reused=reused)
        if rebuilt:
            instrument("fleet_kernels_rebuilt_total").inc(rebuilt)
        if reused:
            instrument("fleet_kernels_reused_total").inc(reused)
        instrument("fleet_scan_machines").observe(len(ids))
        instrument("fleet_scan_seconds").observe(time.perf_counter() - t0)
        return scan

    # ------------------------------------------------------------------ #

    def _entry(self, key: tuple) -> _FleetWindow:
        """Get-or-create one window's cache, LRU-bounding (lock held)."""
        entry = self._windows.get(key)
        if entry is None:
            entry = self._windows[key] = _FleetWindow()
            while len(self._windows) > self.max_windows:
                oldest = next(iter(self._windows))
                if oldest == key:
                    self._windows.move_to_end(oldest)
                    continue
                del self._windows[oldest]
        else:
            self._windows.move_to_end(key)
        return entry

    def _solve(
        self, entry: _FleetWindow, ids: list[str], clock: ClockWindow, dtype: DayType
    ) -> FleetScan:
        kernels = [entry.rows[mid][1] for mid in ids]
        inits = [entry.rows[mid][2] for mid in ids]
        fleet = FleetKernel(ids, kernels)
        solution = solve_fleet(fleet, inits)
        return FleetScan(
            machine_ids=tuple(ids),
            clock=clock,
            day_type=dtype,
            tr=solution.tr,
            fail=solution.fail,
            profiles=solution.profiles,
            horizons=fleet.horizons,
            steps=fleet.steps,
            init_states=np.asarray(inits, dtype=np.int64),
        )
