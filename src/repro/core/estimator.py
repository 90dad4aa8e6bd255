"""Windowed SMP-parameter estimation from history traces.

The paper computes the SMP parameters for a target window "via the
statistics on history logs ... from the data within the corresponding
time windows of the most recent N weekdays (weekends)" (Section 4.2).
This module performs exactly that extraction: given a training trace, a
classifier and a target window, it classifies the matching clock window
on each eligible history day and feeds the pooled state sequences to the
kernel estimator of :mod:`repro.core.smp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core import windows as win
from repro.core.classifier import StateClassifier
from repro.core.smp import (
    Censoring,
    SmpKernel,
    VisitObservation,
    collect_observations,
    kernel_from_observations,
)
from repro.core.states import State
from repro.core.windows import AbsoluteWindow, ClockWindow, DayType
from repro.traces.trace import MachineTrace

__all__ = [
    "DaySample",
    "EstimatorConfig",
    "WindowedKernelEstimator",
    "pool_observations",
    "typical_state",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Tunables of the windowed estimator.

    Attributes
    ----------
    history_days:
        Use at most the ``N`` most recent same-type days of the training
        trace; ``None`` (default) uses all of them — the paper's setting
        when it splits the 3-month trace in half.
    lookback:
        Seconds of context classified *before* each history window.  The
        default 0 measures the first visit's holding time from the window
        start, which matches the prediction semantics: the SMP treats the
        window start as a renewal point, so the first sojourn it predicts
        is the *residual* life of the state in progress — exactly what a
        window-start-truncated observation estimates.  A positive
        lookback measures holding from the state's true entry instead
        (kept for ablation; it systematically over-predicts TR because
        long overnight sojourns then dominate the holding-time mass).
        ``None`` uses one window length.  Clipped to the data available
        before each window.
    censoring / laplace:
        Passed through to the kernel estimator; see
        :func:`repro.core.smp.estimate_kernel`.  The default ``"km"``
        (discrete competing-risks Kaplan-Meier) handles the visits still
        in progress at each history window's end exactly; the naive
        ``"beyond"`` counting estimator builds an artificial survival
        floor that inflates TR for long windows.
    step_multiple:
        Coarsen the discretization interval to ``step_multiple`` samples
        per step.  ``d`` stays tied to the monitoring period (the paper's
        choice) when 1; larger values trade accuracy for speed, the
        trade-off the paper discusses for discrete-time SMPs (Section
        4.1) and that our ablation bench quantifies.  Coarse steps take
        the *most severe* state within each group of samples, so short
        failures are never hidden by coarsening.
    day_type_split:
        ``True`` (default, the paper's Section 4.2 setting) trains only
        on history days of the requested type (weekday vs weekend).
        ``False`` pools every history day regardless of type — the right
        call when the host has no weekly rhythm (server rooms) and the
        per-type sample count is the accuracy bottleneck.  The adapt
        tier's retune search flips this switch per machine.
    """

    history_days: int | None = None
    lookback: float | None = 0.0
    censoring: Censoring = "km"
    laplace: float = 0.0
    step_multiple: int = 1
    day_type_split: bool = True

    def __post_init__(self) -> None:
        if self.history_days is not None and self.history_days < 1:
            raise ValueError(f"history_days must be >= 1 or None, got {self.history_days}")
        if self.lookback is not None and self.lookback < 0.0:
            raise ValueError(f"lookback must be >= 0 or None, got {self.lookback}")
        if self.step_multiple < 1:
            raise ValueError(f"step_multiple must be >= 1, got {self.step_multiple}")


def coarsen_states(states: np.ndarray, multiple: int) -> np.ndarray:
    """Downsample a state sequence by taking the max (most severe) state.

    State severity coincides with the numeric ordering S1 < S2 < S3 < S4
    < S5 for the purpose of "does a failure occur in this step", which is
    all the TR computation observes.  A trailing partial group is kept.
    """
    if multiple == 1:
        return states
    n = states.shape[0]
    n_full = (n // multiple) * multiple
    out = states[:n_full].reshape(-1, multiple).max(axis=1)
    if n_full < n:
        out = np.concatenate([out, [states[n_full:].max()]])
    return out


class DaySample(NamedTuple):
    """What one history day contributes to a window's estimate."""

    observations: list[VisitObservation]
    start_state: State


def pool_observations(samples: Iterable[DaySample]) -> list[VisitObservation]:
    """The days' observations in one list, in day order."""
    return [o for sample in samples for o in sample.observations]


def typical_state(samples: Iterable[DaySample]) -> State:
    """Most common start state of the days (ties to the lower state; S1 if none)."""
    counts = np.zeros(6, dtype=np.int64)
    for sample in samples:
        counts[int(sample.start_state)] += 1
    return State(int(np.argmax(counts[1:])) + 1)


class WindowedKernelEstimator:
    """Estimate the SMP kernel for a target window from a training trace."""

    def __init__(
        self,
        classifier: StateClassifier | None = None,
        config: EstimatorConfig | None = None,
    ) -> None:
        self.classifier = classifier or StateClassifier()
        self.config = config or EstimatorConfig()

    # ------------------------------------------------------------------ #

    def step(self, trace: MachineTrace) -> float:
        """Effective discretization interval ``d`` for this trace."""
        return trace.sample_period * self.config.step_multiple

    def history_days(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> list[int]:
        """Eligible history days, most recent first.

        A day is eligible when it has the requested type and the clock
        window instantiated on it lies entirely within the trace.  With
        ``day_type_split=False`` every covered day is eligible.
        """
        days: list[int] = []
        limit = self.config.history_days
        pool = trace.days(dtype) if self.config.day_type_split else trace.days(None)
        # trace.covers(clock.on_day(d)) without building a window per day:
        # every kernel-row read runs this, once per machine in a fleet scan.
        lo, hi = trace.start_time - 1e-9, trace.end_time + 1e-9
        for d in reversed(pool):
            start = win.day_start(d) + clock.start
            if start >= lo and start + clock.duration <= hi:
                days.append(d)
                if limit is not None and len(days) >= limit:
                    break
        return days

    def day_sample(self, trace: MachineTrace, clock: ClockWindow, day: int) -> DaySample:
        """One history day's observations and start state: the per-day rule.

        Classifies the clock window on ``day`` plus its lookback and
        coarsens it to the step grid (the lookback trimmed to whole
        steps so the window start stays on a step boundary).  Both
        outputs come from that one coarse sequence: the sojourn
        observations, and the state of coarse step 0 — the window's
        first step, the same step :mod:`repro.core.empirical` and the
        audit judge outcomes from.
        """
        cfg = self.config
        lookback = cfg.lookback if cfg.lookback is not None else clock.duration
        target = clock.on_day(day)
        lb = min(lookback, max(0.0, target.start - trace.start_time))
        lb_steps = int(round(lb / trace.sample_period))
        view = trace.window_view(
            AbsoluteWindow(target.start - lb_steps * trace.sample_period,
                           target.duration + lb_steps * trace.sample_period)
        )
        states = self.classifier.classify_window(view)
        mult = cfg.step_multiple
        trim = lb_steps % mult
        coarse = coarsen_states(states[trim:], mult)
        coarse_lb = (lb_steps - trim) // mult
        obs = collect_observations([coarse], lookback_steps=coarse_lb)
        return DaySample(obs, State(int(coarse[coarse_lb])))

    def day_samples(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> list[DaySample]:
        """:meth:`day_sample` of every eligible history day, most recent first."""
        days = self.history_days(trace, clock, dtype)
        return [self.day_sample(trace, clock, day) for day in days]

    # ------------------------------------------------------------------ #

    def observations(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> list[VisitObservation]:
        """Pooled sojourn observations across the history windows."""
        return pool_observations(self.day_samples(trace, clock, dtype))

    def kernel_for(
        self, trace: MachineTrace, clock: ClockWindow, obs: Sequence[VisitObservation]
    ) -> SmpKernel:
        """The kernel of pooled observations over the window's step grid."""
        step = self.step(trace)
        return kernel_from_observations(
            obs,
            win.n_steps(clock.duration, step),
            step,
            censoring=self.config.censoring,
            laplace=self.config.laplace,
        )

    def estimate(
        self,
        trace: MachineTrace,
        target: AbsoluteWindow | ClockWindow,
        dtype: DayType | None = None,
    ) -> SmpKernel:
        """Estimate the kernel for a target window.

        ``target`` may be an absolute window (its own day type is used) or
        a recurring clock window plus an explicit ``dtype``.
        """
        clock, dtype = win.resolve_window(target, dtype)
        return self.kernel_for(trace, clock, self.observations(trace, clock, dtype))

    def typical_initial_state(
        self, trace: MachineTrace, clock: ClockWindow, dtype: DayType
    ) -> State:
        """Most common window-start state across history days.

        Used when no live monitor reading is available for ``S_init``.
        Falls back to S1 when no history day covers the window.
        """
        return typical_state(self.day_samples(trace, clock, dtype))
