"""FLEET — batched fleet-scale SMP solves vs the scalar predict loop.

Two layers, same question ("TR for every machine, now"):

* **kernel level** — M random per-machine kernels solved by the scalar
  Eq.-3 recursion (:func:`~repro.core.smp.failure_probabilities` in a
  Python loop) vs one stacked :class:`~repro.fleet.FleetKernel` pass
  (:func:`~repro.fleet.solve_fleet`).  Both arms do identical flops;
  the batched arm replaces M small BLAS calls per step with two batched
  matmuls, so the win here is call-overhead amortization (a few ×).
* **service level** — a 100-machine registry answering rank/select.
  Both arms read the same cached kernel rows.  The scalar loop (one
  ``service.predict`` per machine) still runs one Eq.-3 recursion per
  machine on every query; the fleet path (``fleet_scan``) memoizes
  whole-registry scans until the registry changes, so a steady-state
  scan is a memo read.  This is where the order-of-magnitude lives, and
  it is the path ``rank``/``select``/the placement engine actually take.
  The cold arms each answer a window the service has never seen, so
  both classify, estimate and solve.

Equality is asserted, not assumed: every batched TR must match its
scalar twin within 1e-9, and the merged rank ordering must be
byte-identical.  ``BENCH_fleet.json`` gates the warm scan latency
(lower) and the 100-machine speedup (``:higher``).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.bench.harness import ExperimentResult, ResultTable
from repro.core.smp import SmpKernel, failure_probabilities
from repro.core.states import State
from repro.core.windows import AbsoluteWindow
from repro.fleet import FleetKernel, solve_fleet
from repro.service import AvailabilityService
from repro.traces.synthesis import synthesize_testbed

__all__ = ["run"]


def _random_kernel(rng: np.random.Generator, horizon: int) -> SmpKernel:
    """A valid random kernel: row-group mass <= 1, column 0 empty."""
    k = np.zeros((8, horizon + 1))
    for rows in (slice(0, 4), slice(4, 8)):
        raw = rng.random((4, horizon))
        raw /= raw.sum()
        k[rows, 1:] = raw * (0.5 + 0.5 * rng.random())
    return SmpKernel(k, 6.0)


def _median_ms(fn, reps: int) -> float:
    """Median wall-clock milliseconds of ``reps`` calls."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(sorted(samples)[len(samples) // 2])


def run(scale: str = "quick", *, seed: int = 0) -> ExperimentResult:
    """Run the FLEET batched-vs-scalar prediction experiment."""
    if scale == "quick":
        fleet_sizes = (10, 100, 1000)
        horizon, reps = 600, 3
        n_machines, n_days, period = 100, 8, 300.0
        service_reps = 3
    else:
        fleet_sizes = (10, 100, 1000)
        horizon, reps = 1200, 5
        n_machines, n_days, period = 200, 10, 120.0
        service_reps = 5

    rng = np.random.default_rng(seed)
    result = ExperimentResult(
        experiment_id="FLEET",
        description="batched fleet-scale SMP solves vs the scalar predict loop",
    )

    # ------------------------------------------------------------------ #
    # kernel level: M scalar Eq.-3 solves vs one stacked pass
    # ------------------------------------------------------------------ #
    kernel_table = ResultTable(
        title=f"FLEET kernel-level solve, horizon {horizon}",
        columns=["machines", "scalar_ms", "batched_ms", "speedup", "max_abs_diff"],
    )
    max_diff_all = 0.0
    for m_count in fleet_sizes:
        kernels = [_random_kernel(rng, horizon) for _ in range(m_count)]
        inits = [State(int(rng.integers(1, 6))) for _ in range(m_count)]
        ids = [f"m{i:04d}" for i in range(m_count)]
        fleet = FleetKernel(ids, kernels)
        init_arr = np.array([int(s) for s in inits])

        def scalar_arm():
            return [failure_probabilities(k, s) for k, s in zip(kernels, inits)]

        def batched_arm():
            return solve_fleet(fleet, init_arr)

        scalar_fail = np.array(scalar_arm())
        solution = batched_arm()
        max_diff = float(np.max(np.abs(solution.fail - scalar_fail)))
        max_diff_all = max(max_diff_all, max_diff)
        assert max_diff <= 1e-9, f"batched != scalar at M={m_count}: {max_diff}"

        scalar_ms = _median_ms(scalar_arm, reps)
        batched_ms = _median_ms(batched_arm, reps)
        kernel_table.add(
            m_count, round(scalar_ms, 2), round(batched_ms, 2),
            round(scalar_ms / max(batched_ms, 1e-9), 2),
            f"{max_diff:.1e}",
        )
        result.notes[f"kernel_speedup_{m_count}"] = round(
            scalar_ms / max(batched_ms, 1e-9), 2
        )
    result.tables.append(kernel_table)
    result.notes["kernel_max_abs_diff"] = f"{max_diff_all:.1e}"

    # ------------------------------------------------------------------ #
    # service level: 100-machine rank/select, scalar loop vs fleet_scan
    # ------------------------------------------------------------------ #
    traces = synthesize_testbed(
        n_machines, n_days=n_days, sample_period=period, seed=seed
    )
    service = AvailabilityService()
    for trace in traces:
        service.register(trace)
    window = AbsoluteWindow(2.0 * 86400.0 + 9.0 * 3600.0, 4.0 * 3600.0)

    def scalar_loop(w: AbsoluteWindow = window) -> dict[str, float]:
        return {m: service.predict(m, w) for m in service.machine_ids}

    # Warm the kernel rows both arms share, then verify the batched
    # answers (and the rank ordering built from them) are exactly the
    # scalar path's.
    scalar_trs = scalar_loop()
    scan = service.fleet_scan(window)
    batch_trs = scan.trs()
    tr_diff = max(abs(scalar_trs[m] - batch_trs[m]) for m in scalar_trs)
    assert tr_diff <= 1e-9, f"fleet_scan != scalar predict loop: {tr_diff}"
    scalar_rank = [
        m for m, _ in sorted(scalar_trs.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    assert scalar_rank == [m for m, _ in scan.ranking()], "rank ordering diverged"

    scalar_ms = _median_ms(scalar_loop, service_reps)
    warm_ms = _median_ms(lambda: service.fleet_scan(window), service_reps)

    # Cold arms: every call answers a window the service has never seen
    # (shifted by whole sample periods), so no row or memo can help.
    unseen = (
        AbsoluteWindow(window.start + i * period, window.duration)
        for i in itertools.count(1)
    )
    cold_ms = _median_ms(lambda: service.fleet_scan(next(unseen)), service_reps)
    scalar_cold_ms = _median_ms(lambda: scalar_loop(next(unseen)), service_reps)

    speedup_cold = scalar_cold_ms / max(cold_ms, 1e-9)
    speedup_warm = scalar_ms / max(warm_ms, 1e-9)

    service_table = ResultTable(
        title=f"FLEET service-level scan, {n_machines} machines",
        columns=["arm", "ms_per_query", "speedup_vs_scalar"],
    )
    service_table.add("scalar predict loop", round(scalar_ms, 2), 1.0)
    service_table.add("scalar predict loop (cold)", round(scalar_cold_ms, 2), 1.0)
    service_table.add("fleet_scan (cold)", round(cold_ms, 2), round(speedup_cold, 1))
    service_table.add("fleet_scan (warm)", round(warm_ms, 3), round(speedup_warm, 1))
    result.tables.append(service_table)

    result.notes["service_machines"] = n_machines
    result.notes["service_speedup_cold"] = round(speedup_cold, 1)
    result.notes["service_speedup_warm"] = round(speedup_warm, 1)
    result.notes["service_tr_max_abs_diff"] = f"{tr_diff:.1e}"
    result.notes["rank_identical"] = True
    # The acceptance bar: a steady-state 100-machine rank/select answered
    # >= 10x faster by the batched path than by the scalar loop.
    assert speedup_warm >= 10.0, (
        f"fleet_scan warm speedup {speedup_warm:.1f}x < 10x acceptance bar"
    )

    result.bench = {
        "scalar_loop_ms": scalar_ms,
        "scalar_loop_cold_ms": scalar_cold_ms,
        "fleet_scan_cold_ms": cold_ms,
        "fleet_scan_warm_ms": warm_ms,
        "fleet_speedup_warm": speedup_warm,
        "fleet_speedup_cold": speedup_cold,
        "kernel_speedup_100": result.notes["kernel_speedup_100"],
        "gate_keys": ["fleet_scan_warm_ms", "fleet_speedup_warm:higher"],
    }
    return result
