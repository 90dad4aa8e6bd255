"""The correctness oracle: every answer against an in-process service.

The reference is an ``AvailabilityService`` registered with the same
generated base histories and grown with the same ``extend`` chunks.
Scalar answers (``predict``, ``horizon``) must match to 1e-12;
``fleet_scan`` answers are held to the scalar reference — per-machine
kernel, Eq.-3 solve, failure split and TR profile — to 1e-9, must cover
every machine, and must be ordered by the TRs they report.

Reads race with extends of the same machine.  Each read records the
extend count acknowledged before it was sent (``lo``) and the count sent
before its answer arrived (``hi``); the answer is correct when it equals
the reference at any version in ``[lo, hi]``.  Almost always ``lo == hi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import windows as win
from repro.core.smp import (
    failure_probabilities,
    temporal_reliability,
    temporal_reliability_profile,
)
from repro.core.windows import ClockWindow, DayType
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace

from workloads import CHUNK, Req, Testbed

SCALAR_TOL = 1e-12
FLEET_TOL = 1e-9


@dataclass(frozen=True)
class Ref:
    """Scalar reference for one machine, window and history version."""

    tr: float
    fail: np.ndarray
    init: int
    profile: np.ndarray
    horizon: int
    step: float

    def tr_at(self, hours: float) -> float:
        m = min(self.horizon, win.n_steps(hours * 3600.0, self.step))
        return float(self.profile[m])


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


@dataclass(frozen=True)
class _Query:
    """The window (and horizon threshold) one read asks about."""

    clock: ClockWindow
    dtype: DayType
    key: tuple
    threshold: float | None

    @classmethod
    def of(cls, params: dict) -> "_Query":
        start, hours = float(params["start_hour"]), float(params["hours"])
        dtype = params.get("day_type", "weekday")
        threshold = params.get("tr_threshold")
        return cls(
            ClockWindow.from_hours(start, hours), DayType(dtype),
            (start, hours, dtype, threshold), threshold,
        )


class _History:
    """One reference service advanced chunk by chunk, never rewound."""

    def __init__(self, bed: Testbed, machines: list[str]) -> None:
        self.bed = bed
        self.svc = AvailabilityService(max_cache_entries=None)
        self.hist: dict[str, MachineTrace] = {}
        self.version: dict[str, int] = {}
        for m in machines:
            self.svc.register(bed.base[m])
            self.hist[m] = bed.base[m]
            self.version[m] = 0

    def advance(self, m: str, v: int) -> bool:
        if v < self.version[m]:
            return False
        while self.version[m] < v:
            self.hist[m] = self.svc.append_samples(self.bed.chunks[m][self.version[m]])
            self.version[m] += 1
        return True

    def ref(self, m: str, clock: ClockWindow, dtype: DayType) -> Ref:
        predictor = self.svc.predictor_for(m)
        kernel = predictor.kernel(self.hist[m], clock, dtype)
        init = predictor.typical_initial_state(self.hist[m], clock, dtype)
        return Ref(
            tr=temporal_reliability(kernel, init),
            fail=np.clip(failure_probabilities(kernel, init), 0.0, 1.0),
            init=int(init),
            profile=temporal_reliability_profile(kernel, init),
            horizon=kernel.horizon,
            step=kernel.step,
        )

    def horizon(self, m: str, clock: ClockWindow, dtype: DayType, threshold: float) -> float:
        return self.svc.reliable_horizon(m, clock, dtype, tr_threshold=threshold)


class Oracle:
    """Checks a run's requests; collects one message per wrong answer."""

    def __init__(self, bed: Testbed) -> None:
        self.bed = bed
        self.main = _History(bed, bed.ids)
        self._side: dict[tuple[str, int], _History] = {}
        self._memo: dict[tuple, object] = {}
        self.errors: list[str] = []

    # -- reference values ------------------------------------------------ #

    def _at(self, m: str, v: int) -> _History:
        """A history of machine ``m`` at version ``v``."""
        if self.main.advance(m, v):
            return self.main
        side = self._side.get((m, v))
        if side is None:
            side = self._side[(m, v)] = _History(self.bed, [m])
            side.advance(m, v)
        return side

    def _value(self, kind: str, m: str, v: int, q: _Query) -> object:
        key = (kind, m, v, q.key)
        value = self._memo.get(key)
        if value is None:
            hist = self._at(m, v)
            if kind == "horizon":
                value = hist.horizon(m, q.clock, q.dtype, float(q.threshold))
            else:
                value = hist.ref(m, q.clock, q.dtype)
            self._memo[key] = value
        return value

    def _candidates(self, kind: str, m: str, req: Req, q: _Query) -> list:
        lo = req.lo if req.machine is not None else req.lo[m]
        hi = req.hi if req.machine is not None else req.hi[m]
        return [self._value(kind, m, v, q) for v in range(lo, max(lo, hi) + 1)]

    # -- checks ---------------------------------------------------------- #

    def check_all(self, reqs: list[Req]) -> None:
        # Visit reads in send order: the versions a read can see only grow
        # with its send time, so the main reference service moves forward.
        reads = [r for r in reqs if r.is_read and r.response is not None and r.response.ok]
        reads.sort(key=lambda r: r.sent)
        for req in reads:
            self._check(req)
        base_n = {m: t.n_samples for m, t in self.bed.base.items()}
        for req in reqs:
            if req.op == "extend" and req.response is not None and req.response.ok:
                want = base_n[req.machine] + req.version * CHUNK
                got = req.response.result.get("n_samples")
                if got != want:
                    self._fail(req, f"n_samples {got}, expected {want}")

    def _fail(self, req: Req, message: str) -> None:
        self.errors.append(f"{req.id} {req.op} {req.params.get('machine', '')}: {message}")

    def _check(self, req: Req) -> None:
        try:
            getattr(self, f"_check_{req.op}")(req, req.response.result, _Query.of(req.params))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            self._fail(req, f"malformed result: {type(exc).__name__}: {exc}")

    def _check_predict(self, req: Req, res: dict, q: _Query) -> None:
        refs = self._candidates("ref", req.machine, req, q)
        if res["machine"] != req.machine or not any(
            _close(float(res["tr"]), ref.tr, SCALAR_TOL) for ref in refs
        ):
            self._fail(req, f"tr {res['tr']!r}, reference {[r.tr for r in refs]}")

    def _check_horizon(self, req: Req, res: dict, q: _Query) -> None:
        refs = self._candidates("horizon", req.machine, req, q)
        if not any(_close(float(res["horizon_seconds"]), h, SCALAR_TOL) for h in refs):
            self._fail(req, f"horizon {res['horizon_seconds']!r}, reference {refs}")

    def _tr_ok(self, req: Req, m: str, tr: float, q: _Query) -> list[Ref] | None:
        refs = self._candidates("ref", m, req, q)
        ok = [ref for ref in refs if _close(tr, ref.tr, FLEET_TOL)]
        if not ok:
            self._fail(req, f"{m} tr {tr!r}, reference {[r.tr for r in refs]}")
            return None
        return ok

    def _check_order(self, req: Req, entries: list[dict]) -> None:
        keys = [(-float(e["tr"]), str(e["machine"])) for e in entries]
        if keys != sorted(keys):
            self._fail(req, "entries are not ordered by TR, then machine id")

    def _check_all_machines(self, req: Req, machines: list[str]) -> None:
        if sorted(machines) != self.bed.ids:
            self._fail(req, f"{len(machines)} machines, expected {len(self.bed.ids)}")

    def _check_fleet_scan(self, req: Req, res: dict, q: _Query) -> None:
        entries = res["machines"]
        self._check_all_machines(req, [e["machine"] for e in entries])
        self._check_order(req, entries)
        horizons = req.params.get("horizons_hours") or []
        for e in entries:
            refs = self._tr_ok(req, e["machine"], float(e["tr"]), q)
            if refs is None:
                continue
            fail = [e["fail"]["s3"], e["fail"]["s4"], e["fail"]["s5"]]
            if not any(
                all(_close(float(a), float(b), FLEET_TOL) for a, b in zip(fail, ref.fail))
                and e["init_state"] == f"S{ref.init}"
                and len(e["tr_at"]) == len(horizons)
                and all(
                    _close(float(got), ref.tr_at(h), FLEET_TOL)
                    for got, h in zip(e["tr_at"], horizons)
                )
                for ref in refs
            ):
                self._fail(req, f"{e['machine']} failure split/profile differs")
