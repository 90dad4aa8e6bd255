"""Incremental (online) kernel estimation for a live State Manager.

The batch estimator re-classifies every history window on every query.
That is fine for experiments but wasteful in deployment, where the
paper's State Manager answers a stream of queries for recurring windows
(a scheduler polls the same "next few hours" shape all day) while the
history grows one day at a time.

:class:`IncrementalPredictor` keeps one *row* per (machine, clock
window, day type): the samples of the window's eligible history days,
and the kernel and typical start state pooled from them.  A row is
reused while ``history_days`` returns the days it was pooled from; when
a grown trace makes a new day eligible, only that day is classified and
the kernel is rebuilt.  ``predict``, the service's ``reliable_horizon``
and its fleet scans all read rows through :meth:`IncrementalPredictor.row`,
so they warm each other.  Results are exactly equal to the batch
estimator's (verified by tests): both read each day through
:meth:`~repro.core.estimator.WindowedKernelEstimator.day_sample`.

Cache invalidation: the model config is fixed per predictor instance,
so it is part of every row's key by construction.  Rows assume a
machine's trace only grows; replacing a trace object with different
data for the same machine id requires :meth:`invalidate`.

Bounding and concurrency: rows are LRU-bounded (``max_cache_entries``,
default 512) so a stream of varied query windows cannot grow the cache
without limit, and every row access is serialized by an internal lock
so the predictor can be shared by the worker threads of
:mod:`repro.serve`.  Classification and the kernel build happen under
the lock, while the SMP solve itself runs outside it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import NamedTuple

from repro.core import windows as win
from repro.core.classifier import StateClassifier
from repro.core.estimator import (
    DaySample,
    EstimatorConfig,
    WindowedKernelEstimator,
    pool_observations,
    typical_state,
)
from repro.core.smp import SmpKernel, temporal_reliability
from repro.core.states import State
from repro.core.windows import AbsoluteWindow, ClockWindow, DayType
from repro.obs.instruments import instrument
from repro.obs.tracing import annotate
from repro.traces.trace import MachineTrace

__all__ = ["IncrementalPredictor"]


class _Row(NamedTuple):
    """One (machine, clock window, day type) entry and what its days pool to."""

    samples: dict[int, DaySample]  # pooled day -> sample, in history_days order
    kernel: SmpKernel
    start_state: State


def _clock_key(clock: ClockWindow) -> tuple[float, float]:
    # Exact floats: rounding to whole seconds made distinct sub-second
    # windows (e.g. starts 0.2 s apart) share — and corrupt — one cache
    # entry.  Floats hash fine and day-observation extraction is a pure
    # function of the exact (start, duration) pair.
    return (clock.start, clock.duration)


class IncrementalPredictor:
    """A TR predictor with one cached kernel row per window.

    Mirrors :class:`~repro.core.predictor.TemporalReliabilityPredictor`'s
    results while only paying classification cost for days not seen in
    earlier queries of the same clock window, and kernel-build cost only
    when the window's eligible days change.
    """

    def __init__(
        self,
        classifier: StateClassifier | None = None,
        config: EstimatorConfig | None = None,
        *,
        max_cache_entries: int | None = 512,
    ) -> None:
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError(
                f"max_cache_entries must be positive or None, got {max_cache_entries}"
            )
        self.estimator = WindowedKernelEstimator(classifier, config)
        self.max_cache_entries = max_cache_entries
        # (machine, clock, day type) -> row
        self._caches: OrderedDict[tuple, _Row] = OrderedDict()
        self._lock = threading.RLock()
        self.days_classified = 0
        self.days_reused = 0

    @property
    def config(self) -> EstimatorConfig:
        """The estimation configuration in force."""
        return self.estimator.config

    @property
    def classifier(self) -> StateClassifier:
        """The classifier in force."""
        return self.estimator.classifier

    def invalidate(self, machine_id: str | None = None) -> None:
        """Drop cached rows (for one machine, or all)."""
        with self._lock:
            if machine_id is None:
                dropped = len(self._caches)
                self._caches.clear()
            else:
                keys = [k for k in self._caches if k[0] == machine_id]
                dropped = len(keys)
                for key in keys:
                    del self._caches[key]
        if dropped:
            instrument("incremental_cache_invalidations_total").inc(dropped)

    def __len__(self) -> int:
        """Number of cached (machine, window, day-type) rows."""
        with self._lock:
            return len(self._caches)

    # ------------------------------------------------------------------ #

    def row(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> tuple[SmpKernel, State, bool]:
        """Kernel and typical start state of one window, and whether this call built them.

        The row is reused while ``history_days`` returns the days it was
        pooled from; otherwise only the days it lacks are classified and
        the kernel is rebuilt.  Days this call did not classify are hits.
        """
        key = (trace.machine_id, _clock_key(clock), dtype)
        with self._lock:
            row = self._caches.pop(key, None)
            days = self.estimator.history_days(trace, clock, dtype)
            built = row is None or list(row.samples) != days
            misses = 0
            if built:
                cached = {} if row is None else row.samples
                samples = {}
                for day in days:
                    sample = cached.get(day)
                    if sample is None:
                        sample = self.estimator.day_sample(trace, clock, day)
                        misses += 1
                    samples[day] = sample
                pooled = pool_observations(samples.values())
                row = _Row(
                    samples,
                    self.estimator.kernel_for(trace, clock, pooled),
                    typical_state(samples.values()),
                )
            self._caches[key] = row  # (re)inserted last: the most recently used
            self._evict_lru()
            hits = len(days) - misses
            self.days_reused += hits
            self.days_classified += misses
        if hits:
            instrument("incremental_cache_hits_total").inc(hits)
        if misses:
            instrument("incremental_cache_misses_total").inc(misses)
            instrument("incremental_days_classified_total").inc(misses)
        # Enrich the enclosing predict.query span (no-op when untraced):
        # cold windows show up as misses, warm ones as pure hits.
        annotate(cache_hits=hits, cache_misses=misses)
        return row.kernel, row.start_state, built

    def _evict_lru(self) -> None:
        """Drop least-recently-used rows past the bound (lock held)."""
        if self.max_cache_entries is None:
            return
        evicted = 0
        while len(self._caches) > self.max_cache_entries:
            self._caches.popitem(last=False)
            evicted += 1
        if evicted:
            instrument("incremental_cache_evictions_total").inc(evicted)

    # ------------------------------------------------------------------ #

    def kernel(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> SmpKernel:
        """The window's kernel, from its cached row."""
        return self.row(trace, clock, dtype)[0]

    def typical_initial_state(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> State:
        """Most common window-start state of the row's days (matches the batch rule)."""
        return self.row(trace, clock, dtype)[1]

    def predict(
        self,
        trace: MachineTrace,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        init_state: State | None = None,
    ) -> float:
        """Predict TR; identical semantics to the batch predictor."""
        t0 = time.perf_counter()
        kernel, typical, _ = self.row(trace, *win.resolve_window(window, dtype))
        tr = temporal_reliability(kernel, typical if init_state is None else init_state)
        instrument("tr_query_latency_seconds").labels(path="incremental").observe(
            time.perf_counter() - t0
        )
        return tr
