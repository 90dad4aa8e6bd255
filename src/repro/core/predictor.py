"""The public prediction entry point: temporal reliability of a window.

:class:`TemporalReliabilityPredictor` bundles the classifier, the
windowed kernel estimator and the Eq.-3 solver into the object a job
scheduler talks to (paper Fig. 2: the State Manager's prediction
function).  Given a training trace (the machine's history log) it
answers: *what is the probability that this machine stays available for
guest execution throughout a given future window?*

Typical use::

    predictor = TemporalReliabilityPredictor(history_trace)
    window = ClockWindow.from_hours(8.0, 5.0)       # 8:00 for 5 hours
    tr = predictor.predict(window, DayType.WEEKDAY) # e.g. 0.91
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.classifier import ClassifierConfig, StateClassifier
from repro.core.estimator import (
    EstimatorConfig,
    WindowedKernelEstimator,
    pool_observations,
    typical_state,
)
from repro.core.smp import SmpKernel, temporal_reliability, temporal_reliability_profile
from repro.core.states import State
from repro.core.windows import AbsoluteWindow, ClockWindow, DayType, resolve_window
from repro.obs.instruments import instrument

__all__ = ["PredictionResult", "TemporalReliabilityPredictor", "max_reliable_horizon"]


@dataclass(frozen=True)
class PredictionResult:
    """A TR prediction plus its provenance and cost breakdown.

    ``estimation_seconds`` and ``solve_seconds`` split the wall-clock cost
    into the Q/H (kernel) estimation and the Eq.-3 recursion — the two
    curves of the paper's Figure 4.
    """

    tr: float
    init_state: State
    n_history_days: int
    n_observations: int
    horizon: int
    step: float
    estimation_seconds: float
    solve_seconds: float

    @property
    def total_seconds(self) -> float:
        """Total prediction wall-clock cost."""
        return self.estimation_seconds + self.solve_seconds


class TemporalReliabilityPredictor:
    """Predict temporal reliability from a machine's monitoring history.

    Parameters
    ----------
    history:
        The machine's training trace (its history log).  May be replaced
        later via :meth:`update_history` as the monitor appends data.
    classifier_config / estimator_config:
        Optional overrides of the classification thresholds and the
        estimation tunables.
    """

    def __init__(
        self,
        history,
        classifier_config: ClassifierConfig | None = None,
        estimator_config: EstimatorConfig | None = None,
    ) -> None:
        self.classifier = StateClassifier(classifier_config)
        self.estimator = WindowedKernelEstimator(self.classifier, estimator_config)
        self.history = history

    def update_history(self, history) -> None:
        """Replace the history trace (e.g. after the monitor appended data)."""
        self.history = history

    # ------------------------------------------------------------------ #

    def kernel(self, window, dtype: DayType | None = None) -> SmpKernel:
        """Estimate the SMP kernel for a window without solving it."""
        return self.estimator.estimate(self.history, window, dtype)

    def predict_detailed(
        self,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        init_state: State | None = None,
    ) -> PredictionResult:
        """Predict TR with full provenance and cost accounting.

        ``init_state`` is the machine's current state as reported by the
        live monitor; when omitted, the most common state at the window's
        start time across the history is used (the scheduler-side
        fallback).  A failure initial state yields TR = 0.
        """
        clock, dt = resolve_window(window, dtype)
        t0 = time.perf_counter()
        samples = self.estimator.day_samples(self.history, clock, dt)
        obs = pool_observations(samples)
        kernel = self.estimator.kernel_for(self.history, clock, obs)
        if init_state is None:
            init_state = typical_state(samples)
        t1 = time.perf_counter()
        tr = temporal_reliability(kernel, init_state)
        t2 = time.perf_counter()
        instrument("tr_query_latency_seconds").labels(path="batch").observe(t2 - t0)
        return PredictionResult(
            tr=tr,
            init_state=State(init_state),
            n_history_days=len(samples),
            n_observations=len(obs),
            horizon=kernel.horizon,
            step=kernel.step,
            estimation_seconds=t1 - t0,
            solve_seconds=t2 - t1,
        )

    def predict(
        self,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        init_state: State | None = None,
    ) -> float:
        """Predict the temporal reliability of a window (the headline API)."""
        return self.predict_detailed(window, dtype, init_state).tr

    def predict_profile(
        self,
        window: ClockWindow | AbsoluteWindow,
        dtype: DayType | None = None,
        init_state: State | None = None,
    ):
        """``TR(m)`` for every sub-horizon of the window, plus the step.

        Returns ``(profile, step_seconds)``; ``profile[m]`` is the TR of
        the window truncated to ``m`` steps.  One kernel estimation and
        one recursion answer every job length up to the window — see
        :func:`repro.core.smp.temporal_reliability_profile`.
        """
        clock, dt = resolve_window(window, dtype)
        samples = self.estimator.day_samples(self.history, clock, dt)
        kernel = self.estimator.kernel_for(self.history, clock, pool_observations(samples))
        if init_state is None:
            init_state = typical_state(samples)
        return temporal_reliability_profile(kernel, init_state), kernel.step


def max_reliable_horizon(
    profile, step: float, tr_threshold: float
) -> float:
    """Longest window length (seconds) whose TR stays at/above a threshold.

    ``profile`` is the output of
    :func:`repro.core.smp.temporal_reliability_profile`; the function
    returns ``m* x step`` where ``m*`` is the largest index with
    ``profile[m] >= tr_threshold`` (0.0 when even the first step dips
    below).  A scheduler uses this to size the job it is willing to
    place on a machine.
    """
    import numpy as np

    if not 0.0 < tr_threshold <= 1.0:
        raise ValueError(f"tr_threshold must be in (0, 1], got {tr_threshold}")
    profile = np.asarray(profile, dtype=float)
    ok = np.flatnonzero(profile >= tr_threshold)
    if ok.size == 0:
        return 0.0
    return float(ok[-1] * step)
