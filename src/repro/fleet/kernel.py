"""Batched Eq.-3 solver over a stacked fleet of SMP kernels.

The scalar solver (:func:`repro.core.smp.failure_probabilities`) runs
the mutual recursion

    P_1(m) = C_1(m) + sum_{l=1}^{m-1} K_{1,2}(l) P_2(m-l)
    P_2(m) = C_2(m) + sum_{l=1}^{m-1} K_{2,1}(l) P_1(m-l)

one machine at a time — ``O(horizon^2)`` Python-loop iterations per
machine, times N machines for every rank/select/scheduler decision.

:class:`FleetKernel` stacks the per-machine kernels into a single
C-contiguous ``(M, 8, H+1)`` float64 tensor (zero-padded to the longest
horizon) and :func:`solve_fleet` runs the recursion once for the whole
fleet: substituting ``i = m - l`` turns the convolution into

    conv_1(m) = sum_{i=1}^{m-1} K_{1,2}(m - i) P_2(i)
              = K_{1,2}^rev[H-m+1 : H] . P_2[1 : m]

where ``K^rev[j] = K[H - j]`` is the *reversed* kernel row, precomputed
as a contiguous copy at construction.  Both slices are positive-stride
views, so each of the H time steps is exactly two batched ``matmul``
calls over all M machines — the Python loop cost is amortized M-fold,
and the inner products run in BLAS.

Padding is harmless: at step ``m <= h_i`` the recursion only reads
kernel entries ``l <= m``, all inside machine *i*'s real horizon, so the
per-machine result read out at its own horizon index is bit-for-bit
unaffected by the other machines' longer windows.  (Entries *beyond* a
machine's own horizon are meaningless and the reliability profile holds
its last real value there.)

Clipping parity with the scalar path is deliberate and tested:

* failure probabilities are clipped to [0, 1] elementwise;
* TR = ``clip(1 - clipped_fail.sum(), 0, 1)`` like
  :func:`~repro.core.smp.temporal_reliability`;
* the profile is ``clip(1 - unclipped_sum, 0, 1)`` like
  :func:`~repro.core.smp.temporal_reliability_profile`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.smp import SLOT_INDEX, SLOTS, SmpKernel
from repro.obs.instruments import instrument

__all__ = ["FleetKernel", "FleetSolution", "solve_fleet"]

#: Failure-target column order, matching core.smp: S3, S4, S5.
_FAILURE_TARGETS = (3, 4, 5)

_ROW_12 = SLOT_INDEX[(1, 2)]
_ROW_21 = SLOT_INDEX[(2, 1)]
_ROWS_1F = tuple(SLOT_INDEX[(1, j)] for j in _FAILURE_TARGETS)
_ROWS_2F = tuple(SLOT_INDEX[(2, j)] for j in _FAILURE_TARGETS)


class FleetKernel:
    """Per-machine SMP kernels stacked into one solvable tensor.

    Parameters
    ----------
    machine_ids:
        One id per kernel, unique, in stacking order.
    kernels:
        The per-machine :class:`~repro.core.smp.SmpKernel` objects.
        Horizons may differ ("ragged" fleets); shorter kernels are
        zero-padded to the longest horizon and their results read out at
        their own horizon index.

    All derived tensors (the stack, the reversed convolution rows, the
    cumulative direct-to-failure mass) are C-contiguous float64 copies
    built once here, so :func:`solve_fleet` performs no per-call copies.
    """

    __slots__ = (
        "machine_ids",
        "k",
        "horizons",
        "steps",
        "k12r",
        "k21r",
        "c1",
        "c2",
        "_index",
    )

    def __init__(
        self, machine_ids: Sequence[str], kernels: Sequence[SmpKernel]
    ) -> None:
        ids = tuple(str(m) for m in machine_ids)
        if len(ids) != len(kernels):
            raise ValueError(
                f"{len(ids)} machine ids but {len(kernels)} kernels"
            )
        if not ids:
            raise ValueError("a FleetKernel needs at least one machine")
        if len(set(ids)) != len(ids):
            raise ValueError("machine ids must be unique")
        for kern in kernels:
            if not isinstance(kern, SmpKernel):
                raise TypeError(f"expected SmpKernel, got {type(kern).__name__}")
        self.machine_ids = ids
        self._index = {mid: i for i, mid in enumerate(ids)}
        self.horizons = np.array([k.horizon for k in kernels], dtype=np.int64)
        self.steps = np.array([k.step for k in kernels], dtype=np.float64)
        m, h = len(ids), int(self.horizons.max())
        stack = np.zeros((m, len(SLOTS), h + 1), dtype=np.float64)
        for i, kern in enumerate(kernels):
            stack[i, :, : kern.horizon + 1] = kern.k
        self.k = np.ascontiguousarray(stack, dtype=np.float64)
        # Reversed convolution rows and cumulative failure mass, copied
        # contiguous once so the solve loop never re-materializes them.
        self.k12r = np.ascontiguousarray(self.k[:, _ROW_12, ::-1])
        self.k21r = np.ascontiguousarray(self.k[:, _ROW_21, ::-1])
        self.c1 = np.ascontiguousarray(
            np.cumsum(self.k[:, _ROWS_1F, :], axis=2)
        )
        self.c2 = np.ascontiguousarray(
            np.cumsum(self.k[:, _ROWS_2F, :], axis=2)
        )

    def __len__(self) -> int:
        return len(self.machine_ids)

    @property
    def max_horizon(self) -> int:
        """The padded (longest) horizon, in steps."""
        return self.k.shape[2] - 1

    def index(self, machine_id: str) -> int:
        """Stacking index of one machine."""
        try:
            return self._index[machine_id]
        except KeyError:
            raise KeyError(f"machine {machine_id!r} not in this fleet") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetKernel(machines={len(self)}, max_horizon={self.max_horizon})"
        )


@dataclass(frozen=True)
class FleetSolution:
    """Everything one batched solve yields, in stacking order.

    ``fail[i]`` are the clipped failure probabilities ``[P_3, P_4, P_5]``
    at machine *i*'s own horizon; ``tr[i]`` its temporal reliability; and
    ``profiles[i, m]`` is ``TR(m)`` for every sub-horizon, holding the
    last real value past the machine's own horizon (ragged fleets).
    """

    fail: np.ndarray  # (M, 3)
    tr: np.ndarray  # (M,)
    profiles: np.ndarray  # (M, max_horizon + 1)


def _validate_inits(fleet: FleetKernel, init_states) -> np.ndarray:
    inits = np.asarray([int(s) for s in init_states], dtype=np.int64)
    if inits.shape != (len(fleet),):
        raise ValueError(
            f"need one init state per machine ({len(fleet)}), got {inits.shape}"
        )
    if np.any((inits < 1) | (inits > 5)):
        bad = inits[(inits < 1) | (inits > 5)][0]
        raise ValueError(f"init states must be one of S1..S5, got {bad}")
    return inits


def solve_fleet(fleet: FleetKernel, init_states) -> FleetSolution:
    """Run the batched Eq.-3 recursion for the whole fleet at once.

    ``init_states`` is one :class:`~repro.core.states.State` (or int) per
    machine in stacking order.  Per machine the result equals the scalar
    :func:`~repro.core.smp.failure_probabilities` /
    :func:`~repro.core.smp.temporal_reliability_profile` pair to within
    1e-9 (the convolution is summed in reversed order, so the last ulp
    may differ; property tests pin the bound).
    """
    inits = _validate_inits(fleet, init_states)
    t0 = time.perf_counter()
    m_count, h = len(fleet), fleet.max_horizon
    p1 = np.zeros((m_count, h + 1, 3))
    p2 = np.zeros((m_count, h + 1, 3))
    operational = (inits == 1) | (inits == 2)
    if np.any(operational):
        k12r = fleet.k12r[:, None, :]
        k21r = fleet.k21r[:, None, :]
        c1 = fleet.c1
        c2 = fleet.c2
        for m in range(1, h + 1):
            if m > 1:
                # One batched matmul per source state: (M,1,m-1)@(M,m-1,3).
                conv1 = np.matmul(k12r[:, :, h - m + 1 : h], p2[:, 1:m, :])[:, 0, :]
                conv2 = np.matmul(k21r[:, :, h - m + 1 : h], p1[:, 1:m, :])[:, 0, :]
                p1[:, m, :] = c1[:, :, m] + conv1
                p2[:, m, :] = c2[:, :, m] + conv2
            else:
                p1[:, 1, :] = c1[:, :, 1]
                p2[:, 1, :] = c2[:, :, 1]
    p_own = np.where((inits == 1)[:, None, None], p1, p2)

    rows = np.arange(m_count)
    fail = p_own[rows, fleet.horizons, :]
    fail_sum = p_own.sum(axis=2)  # unclipped, as the scalar profile uses
    profiles = np.clip(1.0 - fail_sum, 0.0, 1.0)
    profiles[:, 0] = 1.0
    # Ragged fleets: beyond a machine's own horizon the padded recursion
    # keeps accumulating meaningless mass — hold the last real value so
    # any sub-horizon read (tr_at) stays well-defined and non-increasing.
    cols = np.arange(h + 1)[None, :]
    beyond = cols > fleet.horizons[:, None]
    profiles = np.where(beyond, profiles[rows, fleet.horizons][:, None], profiles)

    failed = ~operational
    if np.any(failed):
        # Boundary condition P_{i,j}(0) = delta_{ij}: already in a
        # failure state means that failure with certainty, TR(m>0) = 0.
        fail[failed] = 0.0
        fail[failed, inits[failed] - 3] = 1.0
        profiles[failed] = 0.0
        profiles[failed, 0] = 1.0

    fail = np.clip(fail, 0.0, 1.0)
    tr = np.clip(1.0 - fail.sum(axis=1), 0.0, 1.0)
    instrument("fleet_solve_seconds").observe(time.perf_counter() - t0)
    return FleetSolution(fail=fail, tr=tr, profiles=profiles)
