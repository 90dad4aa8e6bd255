"""A multi-machine availability-prediction service facade.

This is the component a downstream system (a grid scheduler, a broker,
an ops dashboard) would actually embed: one object that holds every
machine's history, answers temporal-reliability queries efficiently
(via the incremental predictor's cached kernel rows), and exposes the
derived quantities schedulers act on — rankings, gang-survival,
confidence intervals and reliable-horizon sizing.

::

    service = AvailabilityService()
    for trace in traces:
        service.register(trace)
    window = ClockWindow.from_hours(9, 5)
    ranking = service.rank(window, DayType.WEEKDAY)
    best = service.select(window, DayType.WEEKDAY, k=2)
    iv = service.interval("lab-03", window, DayType.WEEKDAY)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.classifier import StateClassifier
from repro.core.estimator import EstimatorConfig
from repro.core.multi import group_survival, select_best_k
from repro.core.online import IncrementalPredictor
from repro.core.predictor import max_reliable_horizon
from repro.core.smp import temporal_reliability_profile
from repro.core.states import State
from repro.core.uncertainty import TrInterval, bootstrap_tr
from repro.core.windows import AbsoluteWindow, ClockWindow, DayType, resolve_window
from repro.fleet.predictor import FleetPredictor, FleetScan
from repro.obs.events import get_event_log
from repro.obs.instruments import instrument
from repro.obs.tracing import start_span
from repro.traces.trace import MachineTrace

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.store import TraceStore

__all__ = ["AvailabilityService", "RankedMachine"]


@dataclass(frozen=True)
class RankedMachine:
    """One entry of a service ranking."""

    machine_id: str
    tr: float


class AvailabilityService:
    """Registry + query front-end over many machines' histories."""

    def __init__(
        self,
        *,
        classifier: StateClassifier | None = None,
        estimator_config: EstimatorConfig | None = None,
        max_cache_entries: int | None = 512,
        store: "TraceStore | None" = None,
    ) -> None:
        self.classifier = classifier or StateClassifier()
        self.config = estimator_config or EstimatorConfig(step_multiple=10)
        self.store = store
        self._histories: dict[str, MachineTrace] = {}
        self._max_cache_entries = max_cache_entries
        self._predictor = IncrementalPredictor(
            self.classifier, self.config, max_cache_entries=max_cache_entries
        )
        # Per-machine model overrides (the adapt tier's promotion target):
        # machines absent from this dict use the shared default predictor.
        self._overrides: dict[str, IncrementalPredictor] = {}
        self._fleet = FleetPredictor(self)
        # Advanced after every change to _histories or _overrides is
        # installed; whole-registry fleet scans are memoized under it.  An
        # increment lost between two racing writers is harmless: both
        # changes were installed before either write, so any scan that
        # sees the new value also sees both changes.
        self._generation = 0

    @classmethod
    def warm_start(cls, store: "TraceStore", **kwargs: object) -> "AvailabilityService":
        """Build a service whose registry is recovered from a trace store.

        Every machine in the store is registered from its recovered
        history (without echoing it back to the store); subsequent
        ``register``/``extend_history``/``append_samples`` calls persist
        to the store before acknowledging.
        """
        service = cls(store=store, **kwargs)  # type: ignore[arg-type]
        for machine_id in store.machine_ids:
            service.register(store.load(machine_id), persist=False)
        return service

    # ------------------------------------------------------------------ #
    # registry
    # ------------------------------------------------------------------ #

    def register(self, history: MachineTrace, *, persist: bool = True) -> None:
        """Add a machine (or replace its history, dropping its kernel rows).

        With a backing store, the history is made durable *before* the
        in-memory registry changes (pass ``persist=False`` only when the
        history already came from the store, as ``warm_start`` does).
        """
        if self.store is not None and persist:
            self.store.replace(history)
        if history.machine_id in self._histories:
            self._invalidate(history.machine_id)
            get_event_log().emit(
                "machine_replaced",
                severity="warning",
                machine_id=history.machine_id,
                n_samples=history.n_samples,
            )
        self._histories[history.machine_id] = history
        self._generation += 1
        instrument("service_registered_machines").set(len(self._histories))

    def extend_history(self, history: MachineTrace, *, persist: bool = True) -> None:
        """Replace a machine's history with a grown version of itself.

        Unlike :meth:`register`, the per-day caches are kept: the new
        trace must extend the old one (same grid), so cached days stay
        valid and only new days will be classified.  With a backing
        store, the new suffix is appended durably before the registry
        changes.
        """
        old = self._histories.get(history.machine_id)
        if old is None:
            self.register(history, persist=persist)
            return
        if (
            old.sample_period != history.sample_period
            or abs(old.start_time - history.start_time) > 1e-9
            or history.n_samples < old.n_samples
        ):
            raise ValueError(
                "extend_history requires a trace that grows the existing one; "
                "use register() to replace it"
            )
        # The kept per-day caches are only valid if every overlapping
        # sample is unchanged.
        n = old.n_samples
        differs = (
            (np.abs(old.load - history.load[:n]) > 1e-12)
            | (np.abs(old.free_mem_mb - history.free_mem_mb[:n]) > 1e-9)
            | (old.up != history.up[:n])
        )
        if differs.any():
            raise ValueError(
                f"extend_history: new trace for {history.machine_id!r} is "
                f"not a prefix-extension of the existing history (sample "
                f"{int(np.argmax(differs))} differs); use register() to replace "
                "the history and invalidate its caches"
            )
        tail = None
        if history.n_samples > n:
            tail = MachineTrace(
                machine_id=history.machine_id,
                start_time=old.end_time,
                sample_period=history.sample_period,
                load=history.load[n:],
                free_mem_mb=history.free_mem_mb[n:],
                up=history.up[n:],
            )
        self._grow(history, tail, persist=persist)

    def _grow(
        self, grown: MachineTrace, tail: MachineTrace | None, *, persist: bool
    ) -> None:
        """Install a grown history, appending its new ``tail`` to the store first."""
        if self.store is not None and persist and tail is not None:
            self.store.append(grown.machine_id, tail)
        self._histories[grown.machine_id] = grown
        self._generation += 1

    def append_samples(self, chunk: MachineTrace) -> MachineTrace:
        """Grow a machine's history by a chunk of newly monitored samples.

        This is the streaming-ingest entry point (the serve ``extend``
        op): ``chunk`` carries only the *new* samples, on the machine's
        grid, starting at (or overlapping) the current history end — a
        retried chunk that overlaps already-ingested samples is trimmed,
        so delivery is idempotent.  For an unknown machine the chunk
        becomes its initial history.  Returns the grown history.
        """
        old = self._histories.get(chunk.machine_id)
        if old is None:
            self.register(chunk)
            return chunk
        if chunk.sample_period != old.sample_period:
            raise ValueError(
                f"chunk sample period {chunk.sample_period} does not match the "
                f"history's {old.sample_period} for {chunk.machine_id!r}"
            )
        offset = (chunk.start_time - old.start_time) / old.sample_period
        seq = int(round(offset))
        if abs(offset - seq) > 1e-3 or seq < 0:
            raise ValueError(
                f"chunk start {chunk.start_time} is not on the sample grid of "
                f"{chunk.machine_id!r} (start {old.start_time}, "
                f"period {old.sample_period})"
            )
        if seq > old.n_samples:
            raise ValueError(
                f"chunk for {chunk.machine_id!r} starts at sample {seq} but the "
                f"history has only {old.n_samples}; samples were lost in between"
            )
        skip = old.n_samples - seq
        if skip >= chunk.n_samples:
            return old  # fully overlapping retry: nothing new
        tail = MachineTrace(
            machine_id=chunk.machine_id,
            start_time=old.end_time,
            sample_period=chunk.sample_period,
            load=chunk.load[skip:],
            free_mem_mb=chunk.free_mem_mb[skip:],
            up=chunk.up[skip:],
        )
        # Built from the registered history, so no prefix check is needed.
        grown = old.concat(tail)
        self._grow(grown, tail, persist=True)
        return grown

    def unregister(self, machine_id: str) -> None:
        """Remove a machine and its kernel rows."""
        del self._histories[machine_id]
        self._overrides.pop(machine_id, None)
        self._invalidate(machine_id)
        self._generation += 1
        instrument("service_registered_machines").set(len(self._histories))

    # ------------------------------------------------------------------ #
    # per-machine model configuration
    # ------------------------------------------------------------------ #

    def predictor_for(self, machine_id: str) -> IncrementalPredictor:
        """The predictor serving one machine (override or shared default)."""
        return self._overrides.get(machine_id, self._predictor)

    def model_config(self, machine_id: str) -> EstimatorConfig:
        """The estimator config currently serving one machine."""
        return self.predictor_for(machine_id).config

    def model_classifier(self, machine_id: str) -> StateClassifier:
        """The classifier currently serving one machine."""
        return self.predictor_for(machine_id).classifier

    def set_model_config(
        self,
        machine_id: str,
        *,
        estimator_config: EstimatorConfig | None = None,
        classifier: StateClassifier | None = None,
    ) -> None:
        """Install (or clear) a per-machine model override.

        With both arguments ``None`` the machine reverts to the shared
        default model.  Nothing is invalidated: a predictor's config is
        fixed, so an override is a fresh predictor whose rows start
        empty, and a revert reads the default predictor's rows, which
        are still checked against the machine's history days.  The
        registry generation advances, so memoized fleet scans miss.
        """
        if estimator_config is None and classifier is None:
            self._overrides.pop(machine_id, None)
        else:
            self._overrides[machine_id] = IncrementalPredictor(
                classifier or self.classifier,
                estimator_config or self.config,
                max_cache_entries=self._max_cache_entries,
            )
        self._generation += 1

    def _invalidate(self, machine_id: str) -> None:
        """Drop one machine's kernel rows in the default and its override predictor.

        Rows are checked only against the history's eligible days, so a
        replaced or removed history must drop them: its successor may
        change days the rows already pooled.
        """
        self._predictor.invalidate(machine_id)
        override = self._overrides.get(machine_id)
        if override is not None:
            override.invalidate(machine_id)

    @property
    def overridden_machines(self) -> list[str]:
        """Machines currently served by a per-machine override."""
        return list(self._overrides)

    @property
    def machine_ids(self) -> list[str]:
        """Registered machine ids."""
        return list(self._histories)

    def __len__(self) -> int:
        return len(self._histories)

    def __contains__(self, machine_id: str) -> bool:
        return machine_id in self._histories

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def _history(self, machine_id: str) -> MachineTrace:
        try:
            return self._histories[machine_id]
        except KeyError:
            raise KeyError(f"machine {machine_id!r} is not registered") from None

    def predict(
        self,
        machine_id: str,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        init_state: State | None = None,
    ) -> float:
        """TR of one machine over one window."""
        t0 = time.perf_counter()
        with start_span("predict.query", "predict", machine=machine_id):
            tr = self.predictor_for(machine_id).predict(
                self._history(machine_id), window, dtype, init_state=init_state
            )
        instrument("tr_query_latency_seconds").labels(path="service").observe(
            time.perf_counter() - t0
        )
        return tr

    def predict_all(
        self, window: ClockWindow | AbsoluteWindow, dtype: DayType | None = None
    ) -> dict[str, float]:
        """TR of every registered machine over one window, in one batched solve."""
        instrument("service_query_fanout_machines").observe(len(self._histories))
        return self.fleet_scan(window, dtype).trs()

    def predict_batch(
        self,
        machines: list[str] | None,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
    ) -> dict[str, float]:
        """TR of many machines over one window, in one batched solve.

        ``machines=None`` means every registered machine; unknown ids
        raise ``KeyError`` like :meth:`predict`.
        """
        return self.fleet_scan(window, dtype, machines=machines).trs()

    def fleet_scan(
        self,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        *,
        machines: list[str] | None = None,
    ) -> FleetScan:
        """Full fleet snapshot: TR, failure split and TR-profiles per machine.

        One stacked Eq.-3 solve over the machines' cached kernel rows
        instead of N scalar recursions; see :class:`repro.fleet.FleetPredictor`.
        """
        return self._fleet.scan(window, dtype, machines=machines)

    def rank(
        self, window: ClockWindow | AbsoluteWindow, dtype: DayType | None = None
    ) -> list[RankedMachine]:
        """Machines sorted by TR, best first (ties broken by id)."""
        trs = self.predict_all(window, dtype)
        order = sorted(trs.items(), key=lambda kv: (-kv[1], kv[0]))
        return [RankedMachine(machine_id=m, tr=tr) for m, tr in order]

    def select(
        self,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        *,
        k: int = 1,
    ) -> tuple[list[str], float]:
        """The best ``k`` machines and their gang-survival probability."""
        trs = self.predict_all(window, dtype)
        chosen = select_best_k(trs, k)
        return chosen, group_survival([trs[m] for m in chosen])

    def interval(
        self,
        machine_id: str,
        window: ClockWindow,
        dtype: DayType,
        *,
        n_resamples: int = 200,
        confidence: float = 0.90,
        rng: np.random.Generator | int = 0,
    ) -> TrInterval:
        """Bootstrap confidence interval for one machine's TR."""
        return bootstrap_tr(
            self.predictor_for(machine_id).estimator,
            self._history(machine_id),
            window,
            dtype,
            n_resamples=n_resamples,
            confidence=confidence,
            rng=rng,
        )

    def reliable_horizon(
        self,
        machine_id: str,
        start: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        *,
        tr_threshold: float = 0.9,
    ) -> float:
        """Longest job (seconds) placeable at ``start`` with TR >= threshold.

        ``start`` fixes the window start and the *maximum* length probed
        (its duration); the answer is where the TR profile crosses the
        threshold.
        """
        history = self._history(machine_id)
        clock, dtype = resolve_window(start, dtype)
        kernel, init, _ = self.predictor_for(machine_id).row(history, clock, dtype)
        profile = temporal_reliability_profile(kernel, init)
        return max_reliable_horizon(profile, kernel.step, tr_threshold)
