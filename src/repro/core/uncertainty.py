"""Bootstrap confidence intervals for temporal-reliability predictions.

The related work the paper criticizes (software-rejuvenation prediction
[28]) suffered "prohibitively wide confidence intervals"; the paper
itself reports only point predictions.  A production FGCS scheduler,
however, benefits from knowing *how sure* the predictor is — a TR of
0.9 estimated from three history days is a different signal than the
same value from thirty.

:func:`bootstrap_tr` quantifies that: it resamples the history days
(the natural exchangeable unit — the SMP pools per-day windows) with
replacement, re-estimates the kernel and TR per resample, and returns
percentile intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.estimator import WindowedKernelEstimator, pool_observations, typical_state
from repro.core.smp import temporal_reliability
from repro.core.states import State
from repro.core.windows import ClockWindow, DayType
from repro.traces.trace import MachineTrace

__all__ = ["TrInterval", "bootstrap_tr"]


@dataclass(frozen=True)
class TrInterval:
    """A TR point estimate with a bootstrap percentile interval."""

    point: float
    lower: float
    upper: float
    confidence: float
    n_resamples: int
    n_history_days: int

    def __post_init__(self) -> None:
        if not self.lower - 1e-9 <= self.point <= self.upper + 1e-9:
            raise ValueError(
                f"point {self.point} outside interval [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        """Width of the interval (0 = perfectly certain)."""
        return self.upper - self.lower

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        pct = int(round(self.confidence * 100))
        return f"TR {self.point:.3f} [{self.lower:.3f}, {self.upper:.3f}] ({pct}% CI)"


def bootstrap_tr(
    estimator: WindowedKernelEstimator,
    trace: MachineTrace,
    clock: ClockWindow,
    dtype: DayType,
    *,
    init_state: State | None = None,
    n_resamples: int = 200,
    confidence: float = 0.90,
    rng: np.random.Generator | int = 0,
) -> TrInterval:
    """Bootstrap a confidence interval for the TR of one window.

    History days are resampled with replacement; each resample's pooled
    sojourn observations yield a kernel and a TR.  The point estimate
    uses the original (unresampled) history.  Raises when the trace has
    no eligible history days.
    """
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)

    # Classify each history day once; every resample reuses the samples.
    per_day = estimator.day_samples(trace, clock, dtype)
    if not per_day:
        raise ValueError(f"trace has no eligible {dtype} history days for this window")
    if init_state is None:
        init_state = typical_state(per_day)

    def tr_from(day_indices) -> float:
        obs = pool_observations(per_day[i] for i in day_indices)
        return temporal_reliability(estimator.kernel_for(trace, clock, obs), init_state)

    n_days = len(per_day)
    point = tr_from(range(n_days))
    samples = np.empty(n_resamples)
    for b in range(n_resamples):
        samples[b] = tr_from(rng.integers(0, n_days, size=n_days))
    alpha = (1.0 - confidence) / 2.0
    lower = float(np.quantile(samples, alpha))
    upper = float(np.quantile(samples, 1.0 - alpha))
    return TrInterval(
        point=point,
        lower=min(lower, point),
        upper=max(upper, point),
        confidence=confidence,
        n_resamples=n_resamples,
        n_history_days=n_days,
    )
