"""Incremental (online) kernel estimation for a live State Manager.

The batch estimator re-classifies every history window on every query.
That is fine for experiments but wasteful in deployment, where the
paper's State Manager answers a stream of queries for recurring windows
(a scheduler polls the same "next few hours" shape all day) while the
history grows one day at a time.

:class:`IncrementalPredictor` memoizes the expensive part — the pooled
per-day sojourn observations of each (clock window, day type) — keyed
by day index.  A query against a grown trace only classifies the *new*
days; everything else is reused.  Results are exactly equal to the
batch estimator's (verified by tests): both read each day through
:meth:`~repro.core.estimator.WindowedKernelEstimator.day_sample`.

Cache invalidation: an entry is keyed by ``(machine, clock, day type,
day)``; re-synthesizing or replacing a trace object with different data
for the same machine id requires :meth:`invalidate`.

Bounding and concurrency: the cache is LRU-bounded at the
``(machine, clock window, day type)`` granularity (``max_cache_entries``,
default 512) so a stream of varied query windows cannot grow it without
limit, and every cache access is serialized by an internal lock so the
predictor can be shared by the worker threads of :mod:`repro.serve`.
Classification happens under the lock — correctness over parallel
classification of the same day — while the SMP solve itself runs
outside it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

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


def _clock_key(clock: ClockWindow) -> tuple[float, float]:
    # Exact floats: rounding to whole seconds made distinct sub-second
    # windows (e.g. starts 0.2 s apart) share — and corrupt — one cache
    # entry.  Floats hash fine and day-observation extraction is a pure
    # function of the exact (start, duration) pair.
    return (clock.start, clock.duration)


class IncrementalPredictor:
    """A TR predictor with per-day observation memoization.

    Mirrors :class:`~repro.core.predictor.TemporalReliabilityPredictor`'s
    results while only paying classification cost for days not seen in
    earlier queries of the same clock window.
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
        # (machine, clock, day type) -> {day: DaySample}
        self._caches: OrderedDict[tuple, dict[int, DaySample]] = OrderedDict()
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
        """Drop cached observations (for one machine, or all)."""
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
        """Number of cached (machine, window, day-type) entries."""
        with self._lock:
            return len(self._caches)

    # ------------------------------------------------------------------ #

    def _cache_for(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> list[DaySample]:
        """Every history day's sample, classifying only uncached days."""
        key = (trace.machine_id, _clock_key(clock), dtype)
        with self._lock:
            cache = self._caches.get(key)
            if cache is None:
                cache = self._caches[key] = {}
                self._evict_lru(keep=key)
            else:
                self._caches.move_to_end(key)
            days = self.estimator.history_days(trace, clock, dtype)
            hits = misses = 0
            for day in days:
                if day in cache:
                    hits += 1
                    continue
                cache[day] = self.estimator.day_sample(trace, clock, day)
                misses += 1
            samples = [cache[day] for day in days]
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
        return samples

    def _evict_lru(self, *, keep: tuple) -> None:
        """Drop least-recently-used entries past the bound (lock held)."""
        if self.max_cache_entries is None:
            return
        evicted = 0
        while len(self._caches) > self.max_cache_entries:
            oldest = next(iter(self._caches))
            if oldest == keep:  # never evict the entry being filled
                self._caches.move_to_end(oldest)
                continue
            del self._caches[oldest]
            evicted += 1
        if evicted:
            instrument("incremental_cache_evictions_total").inc(evicted)

    # ------------------------------------------------------------------ #

    def estimate(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> tuple[SmpKernel, State]:
        """Kernel and typical start state, from one pass over the day cache."""
        samples = self._cache_for(trace, clock, dtype)
        kernel = self.estimator.kernel_for(trace, clock, pool_observations(samples))
        return kernel, typical_state(samples)

    def kernel(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> SmpKernel:
        """Estimate the kernel, reusing cached per-day observations."""
        return self.estimate(trace, clock, dtype)[0]

    def typical_initial_state(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> State:
        """Most common cached window-start state (matches the batch rule)."""
        return typical_state(self._cache_for(trace, clock, dtype))

    def predict(
        self,
        trace: MachineTrace,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        init_state: State | None = None,
    ) -> float:
        """Predict TR; identical semantics to the batch predictor."""
        t0 = time.perf_counter()
        kernel, typical = self.estimate(trace, *win.resolve_window(window, dtype))
        tr = temporal_reliability(kernel, typical if init_state is None else init_state)
        instrument("tr_query_latency_seconds").labels(path="incremental").observe(
            time.perf_counter() - t0
        )
        return tr
