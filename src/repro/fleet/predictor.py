"""Whole-registry fleet scans over a service's kernel rows.

:class:`FleetPredictor` sits between :class:`~repro.service.AvailabilityService`
and the batched solver: for a query window it stacks every requested
machine's kernel row into one :class:`~repro.fleet.kernel.FleetKernel`
and solves the whole fleet in one pass.  It keeps no kernel state of its
own.  Each row comes from the machine's serving
:class:`~repro.core.online.IncrementalPredictor` (``predictor_for``), the
same row ``predict`` and ``reliable_horizon`` read, so a row is rebuilt
only when the machine's eligible history days change, and the scalar and
fleet paths warm each other.

Whole-registry scans are memoized per (window, day type) under the
service's registry *generation*, an integer the service advances after
every change to its histories or model overrides.  A scan reads the
generation before it gathers rows, so a scan that races a write records
an older generation and the next scan misses; a memo is never served
stale.  Subset scans (scheduler candidate pools vary per job) are not
memoized.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import windows as win
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


#: Whole-registry scans memoized at once, one per (clock window, day type).
MAX_WINDOWS = 8


class FleetPredictor:
    """Stacks kernel rows into fleet scans and memoizes whole-registry scans."""

    def __init__(self, service: "AvailabilityService") -> None:
        self._service = service
        # (start, duration, day type) -> (registry generation, scan)
        self._scans: OrderedDict[tuple, tuple[int, FleetScan]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of memoized (window, day-type) scans."""
        with self._lock:
            return len(self._scans)

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
        order regardless, each machine once); ``None`` scans every
        registered machine.
        Unknown machines raise ``KeyError`` like the scalar path.
        """
        t0 = time.perf_counter()
        clock, dtype = win.resolve_window(window, dtype)
        # Read before gathering rows: a scan racing a registry write then
        # memoizes under the older generation, so the next scan misses.
        generation = self._service._generation
        histories = self._service._histories
        if machines is None:
            ids = sorted(histories)
        else:
            ids = sorted({str(m) for m in machines})
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
        key = (clock.start, clock.duration, dtype)
        # Memoize whole-registry scans only: subset queries (scheduler
        # candidate pools vary per job) would otherwise thrash the memo.
        whole = len(ids) == len(histories)
        with start_span("fleet.scan", "fleet", machines=len(ids)) as span:
            with self._lock:
                memo = self._scans.pop(key, None) if whole else None
                if memo is not None and memo[0] == generation:
                    scan, rebuilt = memo[1], 0
                else:
                    scan, rebuilt = self._solve(ids, clock, dtype)
                if whole:  # (re)inserted last: the most recently used
                    self._scans[key] = (generation, scan)
                    if len(self._scans) > MAX_WINDOWS:
                        self._scans.popitem(last=False)
            reused = len(ids) - rebuilt
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

    def _solve(
        self, ids: list[str], clock: ClockWindow, dtype: DayType
    ) -> tuple[FleetScan, int]:
        """Stack the machines' kernel rows and solve; also counts rows built."""
        histories = self._service._histories
        kernels, inits, rebuilt = [], [], 0
        for mid in ids:
            trace = histories.get(mid)
            if trace is None:  # unregistered between snapshot and now
                raise KeyError(f"machine {mid!r} is not registered")
            # Per-machine lookup: a promoted override feeds its own row.
            kernel, init, built = self._service.predictor_for(mid).row(
                trace, clock, dtype
            )
            kernels.append(kernel)
            inits.append(int(init))
            rebuilt += built
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
        ), rebuilt
