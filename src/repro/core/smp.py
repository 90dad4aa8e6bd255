"""The discrete-time semi-Markov process (SMP) at the heart of the paper.

Model
-----
The availability model has five states; S3/S4/S5 are absorbing failures
(paper Fig. 3), so the SMP kernel has exactly eight structurally non-zero
``(from, to)`` slots::

    (1,2) (1,3) (1,4) (1,5)   from S1
    (2,1) (2,3) (2,4) (2,5)   from S2

Rather than carrying the transition matrix ``Q`` and the holding-time mass
functions ``H`` separately, we estimate and store their product — the
*semi-Markov kernel* ::

    K_{i,k}(l) = Q_i(k) * H_{i,k}(l)
              = Pr{ next transition from S_i is to S_k, after exactly l steps }

which is the only combination the interval-transition recursion (paper
Eq. 3) ever uses.  ``Q`` and ``H`` are recoverable from ``K`` and exposed
as properties for inspection and tests.

Estimation
----------
:func:`estimate_kernel` counts state visits across the pooled history
windows (one state sequence per history day).  Each visit of S1/S2 whose
transition falls inside the window contributes one completed observation
``(holding, target)``; visits still in progress at the window end are
right-censored.  Two censoring treatments are provided:

``"beyond"`` (default)
    censored visits contribute survival mass beyond the horizon — they
    count in the visit total but never produce a transition within the
    window.  Slightly optimistic for visits censored early in the window.
``"km"``
    a discrete competing-risks Kaplan-Meier estimator: per-step cause-
    specific hazards ``h_k(l) = d_k(l) / n_at_risk(l)`` are converted to a
    kernel via the product-limit survival curve.  Handles censoring
    exactly at the cost of slightly noisier tails.
``"drop"``
    censored visits are discarded entirely (biased toward transitions;
    provided for ablation).

Solution
--------
:func:`failure_probabilities` implements paper Eq. 3: the mutual recursion
between ``P_{1,j}(m)`` and ``P_{2,j}(m)`` for the three failure targets
``j``, vectorized over ``j`` and over the convolution with NumPy dots.
The arithmetic cost is ``O((T/d)^2)`` — the paper observes the measured
superlinear growth (exponent ~1.85) in its Fig. 4, which our Fig. 4 bench
reproduces.  :func:`failure_probabilities_dense` is an intentionally
naive 5-state reference implementation used to validate the sparse
solver in tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from repro.core.segments import run_length_encode
from repro.core.states import FAILURE_STATES, N_STATES, State
from repro.obs.instruments import instrument

__all__ = [
    "SLOTS",
    "SLOT_INDEX",
    "SmpKernel",
    "VisitObservation",
    "collect_observations",
    "estimate_kernel",
    "kernel_from_observations",
    "failure_probabilities",
    "temporal_reliability",
    "temporal_reliability_profile",
    "failure_probabilities_dense",
]

#: The eight structurally non-zero (from, to) pairs, in storage order.
SLOTS: tuple[tuple[int, int], ...] = (
    (1, 2),
    (1, 3),
    (1, 4),
    (1, 5),
    (2, 1),
    (2, 3),
    (2, 4),
    (2, 5),
)

#: Map (from, to) -> row index into the kernel array.
SLOT_INDEX: dict[tuple[int, int], int] = {pair: i for i, pair in enumerate(SLOTS)}

#: Failure-target column order used throughout: S3, S4, S5.
_FAILURE_TARGETS = (3, 4, 5)

Censoring = Literal["beyond", "km", "drop"]


@dataclass(frozen=True)
class VisitObservation:
    """One observed sojourn in an operational state.

    ``holding`` is in discretization steps; ``target`` is the next state
    (as an int) for completed visits and ``None`` for right-censored ones,
    in which case ``holding`` is the censoring time (steps survived).
    """

    state: int
    holding: int
    target: int | None

    @property
    def censored(self) -> bool:
        """True when the visit did not end within the observed window."""
        return self.target is None


class SmpKernel:
    """A sparse discrete-time semi-Markov kernel over the 8 slots.

    Parameters
    ----------
    k:
        Array of shape ``(8, horizon + 1)``; ``k[s, l]`` is the
        probability that a visit to the slot's source state ends with the
        slot's transition after exactly ``l`` steps.  Column 0 is always
        zero (transitions take at least one step).  Row groups (source 1:
        rows 0-3; source 2: rows 4-7) may sum to less than 1 — the
        remaining mass is "no transition within the horizon".
    step:
        The discretization interval ``d`` in seconds (kept for reporting).
    """

    __slots__ = ("k", "step")

    def __init__(self, k: np.ndarray, step: float) -> None:
        k = np.asarray(k, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != len(SLOTS):
            raise ValueError(f"kernel must have shape (8, horizon+1), got {k.shape}")
        if k.shape[1] < 2:
            raise ValueError("kernel horizon must be at least 1 step")
        if np.any(k < -1e-12):
            raise ValueError("kernel probabilities must be non-negative")
        if np.any(np.abs(k[:, 0]) > 1e-12):
            raise ValueError("kernel column 0 (zero holding time) must be zero")
        for src_rows in (slice(0, 4), slice(4, 8)):
            total = float(k[src_rows].sum())
            if total > 1.0 + 1e-9:
                raise ValueError(f"kernel mass for one source state exceeds 1 ({total})")
        if step <= 0.0:
            raise ValueError(f"step must be positive, got {step}")
        self.k = k
        self.step = float(step)

    # ------------------------------------------------------------------ #

    @property
    def horizon(self) -> int:
        """Number of discretization steps the kernel covers."""
        return self.k.shape[1] - 1

    def slot(self, src: int, dst: int) -> np.ndarray:
        """Return the pmf row ``K_{src,dst}(l)`` (a view)."""
        return self.k[SLOT_INDEX[(src, dst)]]

    @property
    def q(self) -> np.ndarray:
        """The within-horizon transition matrix ``Q`` as a dense (5,5) array.

        ``Q[i-1, j-1] = sum_l K_{i,j}(l)`` — the probability that a visit
        to ``S_i`` ends with a transition to ``S_j`` within the horizon.
        Rows of absorbing states are zero.
        """
        q = np.zeros((N_STATES, N_STATES))
        for (src, dst), row in SLOT_INDEX.items():
            q[src - 1, dst - 1] = self.k[row].sum()
        return q

    def holding_pmf(self, src: int, dst: int) -> np.ndarray:
        """The conditional holding-time pmf ``H_{src,dst}(l)``.

        Zero everywhere when the transition was never observed.
        """
        row = self.slot(src, dst)
        total = row.sum()
        if total <= 0.0:
            return np.zeros_like(row)
        return row / total

    def expected_holding(self, src: int, dst: int) -> float:
        """Mean holding time (steps) of the ``src -> dst`` transition."""
        pmf = self.holding_pmf(src, dst)
        return float(np.dot(pmf, np.arange(pmf.shape[0])))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SmpKernel(horizon={self.horizon}, step={self.step}s)"


# ---------------------------------------------------------------------- #
# estimation
# ---------------------------------------------------------------------- #


def collect_observations(
    sequences: Iterable[np.ndarray],
    *,
    lookback_steps: int = 0,
) -> list[VisitObservation]:
    """Extract sojourn observations from pooled history state sequences.

    Each sequence covers one history day's clock window, optionally with
    ``lookback_steps`` extra samples *preceding* the window so that the
    holding time of the visit in progress at the window start is measured
    from its true entry (visits older than the lookback remain
    left-truncated, a second-order effect).

    A visit of S1/S2 contributes when it overlaps the window proper
    (index >= ``lookback_steps``):

    * completed, if its transition occurs at or before the window end;
    * right-censored at the window end otherwise.

    Visits to failure states contribute nothing (absorbing).
    """
    obs: list[VisitObservation] = []
    for seq in sequences:
        seq = np.asarray(seq)
        if seq.ndim != 1:
            raise ValueError(f"state sequences must be 1-D, got shape {seq.shape}")
        if seq.shape[0] <= lookback_steps:
            raise ValueError(
                f"sequence of {seq.shape[0]} samples does not extend past the "
                f"lookback of {lookback_steps}"
            )
        vals, starts, lengths = run_length_encode(seq)
        n_runs = len(vals)
        for i in range(n_runs):
            state = int(vals[i])
            if state not in (State.S1, State.S2):
                continue
            end = int(starts[i] + lengths[i])
            if end <= lookback_steps:
                continue  # entirely within the lookback prefix
            if i + 1 < n_runs:
                obs.append(
                    VisitObservation(state=state, holding=int(lengths[i]), target=int(vals[i + 1]))
                )
            else:
                obs.append(VisitObservation(state=state, holding=int(lengths[i]), target=None))
    return obs


def estimate_kernel(
    sequences: Iterable[np.ndarray],
    horizon: int,
    step: float,
    *,
    lookback_steps: int = 0,
    censoring: Censoring = "beyond",
    laplace: float = 0.0,
) -> SmpKernel:
    """Estimate the sparse SMP kernel from pooled history windows.

    Parameters
    ----------
    sequences:
        Per-history-day state sequences (see :func:`collect_observations`).
    horizon:
        Number of discretization steps ``T/d`` of the prediction window.
    step:
        Discretization interval ``d`` (seconds); stored on the kernel.
    lookback_steps:
        Samples of context preceding each window (see above).
    censoring:
        Treatment of right-censored visits (module docstring).
    laplace:
        Optional smoothing: adds ``laplace`` pseudo-visits per source
        state that never transition (pure survival mass).  Damps the
        impact of isolated irregular events in small histories.
    """
    obs = collect_observations(sequences, lookback_steps=lookback_steps)
    return kernel_from_observations(obs, horizon, step, censoring=censoring, laplace=laplace)


def kernel_from_observations(
    obs: Sequence[VisitObservation],
    horizon: int,
    step: float,
    *,
    censoring: Censoring = "beyond",
    laplace: float = 0.0,
) -> SmpKernel:
    """Build a kernel from pre-collected sojourn observations.

    Used when observations are gathered with per-day lookbacks (the
    windowed estimator); otherwise identical to :func:`estimate_kernel`.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if laplace < 0.0:
        raise ValueError(f"laplace must be >= 0, got {laplace}")
    t0 = time.perf_counter()
    for o in obs:
        if o.state not in (1, 2):
            raise ValueError(f"observations must come from S1/S2 visits, got {o.state}")
        if o.target is not None and (o.state, o.target) not in SLOT_INDEX:
            raise ValueError(f"impossible transition {o.state} -> {o.target}")
    if censoring == "km":
        k = _kernel_km(obs, horizon, laplace)
    elif censoring in ("beyond", "drop"):
        k = _kernel_counting(obs, horizon, laplace, drop_censored=(censoring == "drop"))
    else:  # pragma: no cover - guarded by Literal type
        raise ValueError(f"unknown censoring mode {censoring!r}")
    kernel = SmpKernel(k, step)
    instrument("smp_kernel_estimation_seconds").observe(time.perf_counter() - t0)
    return kernel


def _slot_rows_for(src: int) -> list[tuple[int, int]]:
    """(row, dst) pairs of the kernel rows whose source is ``src``."""
    return [(row, dst) for (s, dst), row in SLOT_INDEX.items() if s == src]


def _kernel_counting(
    obs: Sequence[VisitObservation],
    horizon: int,
    laplace: float,
    *,
    drop_censored: bool,
) -> np.ndarray:
    """Direct counting estimator with beyond-horizon or dropped censoring."""
    counts = np.zeros((len(SLOTS), horizon + 1))
    visits = {1: laplace, 2: laplace}
    for o in obs:
        if o.censored or o.holding > horizon:
            # A censored visit, or a completed one whose transition falls
            # past the horizon, contributes survival mass only.
            if not (o.censored and drop_censored):
                visits[o.state] += 1.0
            continue
        visits[o.state] += 1.0
        counts[SLOT_INDEX[(o.state, o.target)], o.holding] += 1.0
    k = np.zeros_like(counts)
    for src in (1, 2):
        if visits[src] > 0.0:
            rows = [row for row, _dst in _slot_rows_for(src)]
            k[rows] = counts[rows] / visits[src]
    return k


def _kernel_km(obs: Sequence[VisitObservation], horizon: int, laplace: float) -> np.ndarray:
    """Discrete competing-risks Kaplan-Meier (product-limit) estimator.

    For each source state ``i`` and step ``l``: the cause-specific hazard
    of target ``k`` is ``h_k(l) = d_k(l) / n(l)`` with ``n(l)`` the number
    of visits still at risk just before ``l``.  The kernel follows as
    ``K_{i,k}(l) = h_k(l) * S(l-1)`` with ``S`` the all-cause survival
    product.  Censored visits leave the risk set after their censoring
    time; Laplace pseudo-visits are modelled as censored at the horizon.
    """
    k = np.zeros((len(SLOTS), horizon + 1))
    for src in (1, 2):
        rows = _slot_rows_for(src)
        dst_of = {dst: row for row, dst in rows}
        # events[dst][l] and censor counts per step
        d = {dst: np.zeros(horizon + 1) for _row, dst in rows}
        c = np.zeros(horizon + 2)
        n_total = laplace
        if laplace > 0.0:
            c[horizon + 1] += laplace
        for o in obs:
            if o.state != src:
                continue
            n_total += 1.0
            t = min(o.holding, horizon + 1)
            if o.censored or o.holding > horizon:
                c[t if o.censored else horizon + 1] += 1.0
            else:
                d[o.target][o.holding] += 1.0
        if n_total <= 0.0:
            continue
        at_risk = n_total
        survival = 1.0
        for l in range(1, horizon + 1):
            if at_risk <= 0.0:
                break
            events_l = sum(d[dst][l] for dst in d)
            for dst in d:
                if d[dst][l] > 0.0:
                    k[dst_of[dst], l] = survival * d[dst][l] / at_risk
            survival *= max(0.0, 1.0 - events_l / at_risk)
            at_risk -= events_l + c[l]
    return k


# ---------------------------------------------------------------------- #
# solution (paper Eq. 3)
# ---------------------------------------------------------------------- #


def _failure_paths(kernel: SmpKernel, init: int) -> np.ndarray:
    """Unclipped ``P_{init,j}(m)`` for m = 0..horizon and j = 3,4,5.

    The sparse mutual recursion of paper Eq. 3 for an operational
    ``init`` (S1 or S2), as a ``(horizon + 1, 3)`` array.
    """
    t0 = time.perf_counter()
    n = kernel.horizon
    k12 = kernel.slot(1, 2)
    k21 = kernel.slot(2, 1)
    # Direct-to-failure cumulative mass: C_i[j, m] = sum_{l<=m} K_{i,j}(l).
    c1 = np.cumsum(np.stack([kernel.slot(1, j) for j in _FAILURE_TARGETS]), axis=1)
    c2 = np.cumsum(np.stack([kernel.slot(2, j) for j in _FAILURE_TARGETS]), axis=1)

    # p1[m, j], p2[m, j] built stepwise; the convolution term couples them.
    p1 = np.zeros((n + 1, 3))
    p2 = np.zeros((n + 1, 3))
    for m in range(1, n + 1):
        if m > 1:
            # sum_{l=1}^{m-1} K_{1,2}(l) P_{2,j}(m-l)  — vectorized over j.
            conv1 = k12[1:m] @ p2[m - 1 : 0 : -1]
            conv2 = k21[1:m] @ p1[m - 1 : 0 : -1]
        else:
            conv1 = conv2 = 0.0
        p1[m] = c1[:, m] + conv1
        p2[m] = c2[:, m] + conv2
    instrument("smp_solve_seconds").observe(time.perf_counter() - t0)
    return p1 if init == 1 else p2


def failure_probabilities(kernel: SmpKernel, init_state: State | int) -> np.ndarray:
    """Interval failure probabilities ``P_{init,j}(horizon)`` for j = 3,4,5.

    Implements the sparse mutual recursion of paper Eq. 3.  Returns an
    array ``[P_{init,3}, P_{init,4}, P_{init,5}]`` evaluated at the
    kernel's horizon.  For a failure ``init_state`` the corresponding
    entry is 1 (the process is already there) per the boundary condition
    ``P_{i,j}(0) = delta_{ij}``.
    """
    init = int(init_state)
    if init in (3, 4, 5):
        out = np.zeros(3)
        out[init - 3] = 1.0
        return out
    if init not in (1, 2):
        raise ValueError(f"init_state must be one of S1..S5, got {init_state!r}")
    result = _failure_paths(kernel, init)[kernel.horizon]
    # Probabilities of disjoint absorbing events; clip tiny FP excursions.
    return np.clip(result, 0.0, 1.0)


def temporal_reliability(kernel: SmpKernel, init_state: State | int) -> float:
    """Temporal reliability ``TR = 1 - sum_j P_{init,j}(T/d)`` (paper Eq. 2)."""
    total = float(failure_probabilities(kernel, init_state).sum())
    return float(np.clip(1.0 - total, 0.0, 1.0))


def temporal_reliability_profile(kernel: SmpKernel, init_state: State | int) -> np.ndarray:
    """``TR(m)`` for every sub-horizon ``m = 0..horizon``, from one solve.

    The Eq.-3 recursion computes all intermediate interval probabilities
    anyway; this exposes them, so a scheduler can read the survival
    probability of *any* job length up to the window in a single pass —
    e.g. "how long a job can I place here with TR >= 0.9?".  Entry 0 is
    1.0 by the boundary condition; the profile is non-increasing.

    For a failure ``init_state`` the profile is 0 beyond m = 0.
    """
    init = int(init_state)
    if init in (3, 4, 5):
        out = np.zeros(kernel.horizon + 1)
        out[0] = 1.0
        return out
    if init not in (1, 2):
        raise ValueError(f"init_state must be one of S1..S5, got {init_state!r}")
    fail = _failure_paths(kernel, init).sum(axis=1)
    return np.clip(1.0 - fail, 0.0, 1.0)


# ---------------------------------------------------------------------- #
# dense reference solver (for validation)
# ---------------------------------------------------------------------- #


def failure_probabilities_dense(kernel: SmpKernel, init_state: State | int) -> np.ndarray:
    """Naive dense-solver for ``P_{init,j}(horizon)``; validates the sparse one.

    Expands the kernel to full ``(5, 5, horizon+1)`` form and runs the
    textbook recursion ``P_{i,j}(m) = delta_{ij} B_i(m) + sum_{k,l}
    K_{i,k}(l) P_{k,j}(m-l)`` over all states, where ``B_i(m)`` is the
    probability of no transition out of ``i`` by ``m``.  O(S^2 n^2) and
    Python-loop heavy on purpose — clarity over speed.
    """
    init = int(init_state)
    n = kernel.horizon
    kfull = np.zeros((N_STATES, N_STATES, n + 1))
    for (src, dst), row in SLOT_INDEX.items():
        kfull[src - 1, dst - 1] = kernel.k[row]
    # Absorbing states "transition to themselves" with certainty at l=1 so
    # that occupancy propagates in the dense recursion.
    for s in FAILURE_STATES:
        kfull[s - 1, s - 1, 1] = 1.0
    no_transition = 1.0 - np.cumsum(kfull.sum(axis=1), axis=1)  # B_i(m)
    p = np.zeros((N_STATES, N_STATES, n + 1))
    p[:, :, 0] = np.eye(N_STATES)
    for m in range(1, n + 1):
        for i in range(N_STATES):
            for j in range(N_STATES):
                acc = no_transition[i, m] if i == j else 0.0
                for kk in range(N_STATES):
                    for l in range(1, m + 1):
                        acc += kfull[i, kk, l] * p[kk, j, m - l]
                p[i, j, m] = acc
    return p[init - 1, [j - 1 for j in _FAILURE_TARGETS], n]
