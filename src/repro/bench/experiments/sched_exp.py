"""SCHED — availability-aware placement vs TR-blind least-loaded.

Replays a heterogeneous testbed through two
:class:`~repro.sched.JobManager` arms fed the *same* jobs and the
*same* machine churn.  The cohorts are deliberately unequal: the
student-lab machines sit mostly idle (failures cluster in the daytime
login hours), while the server-room machines run hot — sustained host
load above Th2 is exactly the S3 contention failure of the five-state
model, so for a *guest job* the "server" cohort is the flaky one.  TR,
trained on the same histories, knows this.  The two arms:

* **predictive** — the production engine: candidates scored by TR over
  the job's remaining-execution window, blended with packing balance;
* **blind** — the control: identical manager, recovery model and
  checkpointing, but the engine ranks by least-loaded headroom alone.

Churn is not random: each machine's held-out trace is pushed through
the five-state classifier, and the machine "dies" (SIGKILL semantics —
nothing to migrate) exactly when its trace enters a failure state
(S3-S5) and recovers when it leaves.  Failures are therefore correlated
with the history TR was trained on — the situation the paper argues
makes availability prediction worth acting on.

The sim clock is injected, so hours of guest work replay in seconds of
wall time; placement latencies, however, are *real* wall-clock
measurements of ``submit`` (TR queries for every candidate included).

Headline: useful guest CPU-seconds banked per simulated second and
total wasted (lost-on-kill) CPU-seconds, per arm.  The acceptance bar
is predictive strictly better on both.  ``BENCH_sched.json`` gates
placement p99 (lower is better) and useful-work throughput (higher is
better, via the ``:higher`` gate-key suffix).
"""

from __future__ import annotations

import time

from repro.bench.harness import ExperimentResult, ResultTable
from repro.core.classifier import StateClassifier
from repro.core.states import State
from repro.sched import (
    STATE_COMPLETED,
    JobManager,
    SchedConfig,
)
from repro.service import AvailabilityService
from repro.traces.profiles import server_room, student_lab
from repro.traces.synthesis import synthesize_testbed

__all__ = ["run"]


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a sample, in the same unit."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[int(rank)]


def _failure_timeline(trace, classifier: StateClassifier):
    """(sample_period, bool-per-sample "machine is dead") for one trace."""
    states = classifier.classify_trace(trace)
    return trace.sample_period, [State(int(s)).is_failure for s in states]


def _dead_at(timeline, t: float) -> bool:
    period, dead = timeline
    idx = min(len(dead) - 1, max(0, int(t / period)))
    return dead[idx]


def _run_arm(
    *,
    predictive: bool,
    service: AvailabilityService,
    timelines: dict[str, tuple],
    job_hours: tuple[float, ...],
    target_inflight: int,
    max_jobs: int,
    sim_start: float,
    sim_end: float,
    tick_s: float,
    job_cpu: float,
) -> dict[str, float]:
    """Drive one scheduler arm through the shared churn script.

    The workload is an open stream: whenever a job finishes (or the sim
    begins) new jobs are submitted to hold ``target_inflight`` in
    flight.  That keeps the placement decision *alive* for the whole
    replay — a flaky machine whose job just died looks attractively
    empty to the least-loaded baseline, and the baseline keeps paying
    for it, while the predictive arm keeps declining.
    """
    sim_now = [sim_start]
    manager = JobManager(
        service,
        config=SchedConfig(predictive=predictive, checkpoint_interval_s=3600.0),
        clock=lambda: sim_now[0],
        node="bench",
    )
    submit_ms: list[float] = []
    down = {m for m, tl in timelines.items() if _dead_at(tl, sim_start)}
    if down:
        manager.replace(sorted(down), reason="node_down")
    created = 0
    job_ids: list[str] = []
    replacements = 0
    t = sim_start
    while t < sim_end:
        stats = manager.stats()["states"]
        inflight = sum(
            n for state, n in stats.items()
            if state in ("pending", "placed", "running")
        )
        while inflight < target_inflight and created < max_jobs:
            job_id = f"job-{created:03d}"
            total = job_hours[created % len(job_hours)] * 3600.0
            t0 = time.perf_counter()
            manager.submit(job_id, total_cpu_seconds=total, cpu=job_cpu)
            submit_ms.append((time.perf_counter() - t0) * 1e3)
            job_ids.append(job_id)
            created += 1
            inflight += 1
        t += tick_s
        sim_now[0] = t
        dead_now = {m for m, tl in timelines.items() if _dead_at(tl, t)}
        died = sorted(dead_now - down)
        recovered = sorted(down - dead_now)
        if recovered:
            manager.replace(recovered, restore=True)
        if died:
            replacements += manager.replace(died, reason="node_down")["replaced"]
        down = dead_now
        manager.refresh(t)
    final = [manager.status(job_id) for job_id in job_ids]
    completed = [r for r in final if r["state"] == STATE_COMPLETED]
    useful = sum(
        r["total_cpu_seconds"] if r["state"] == STATE_COMPLETED
        else r["progress_seconds"]
        for r in final
    )
    wasted = sum(r["wasted_cpu_seconds"] for r in final)
    flaky_attempts = sum(
        1
        for r in final
        for a in r["attempts"]
        if a["machine"].startswith("srv-")
    )
    manager.close()
    return {
        "created": created,
        "completed": len(completed),
        "useful_cpu_s": useful,
        "wasted_cpu_s": wasted,
        "useful_work_rate": useful / (sim_end - sim_start),
        "replacements": replacements,
        "flaky_attempts": flaky_attempts,
        "place_p50_ms": _pct(submit_ms, 0.50),
        "place_p99_ms": _pct(submit_ms, 0.99),
    }


def run(scale: str = "quick", *, seed: int = 0) -> ExperimentResult:
    """Run the SCHED predictive-vs-blind placement experiment."""
    # Held-out days must be weekdays (day 0 is a Monday): a weekend
    # replay sees empty labs, TR ~ 1 everywhere, and nothing to choose.
    # A full week of replay: the TR edge per placement is modest (~10%
    # better survival odds), so the strict predictive-beats-blind margin
    # needs enough churn events to average over — 3 held-out days is
    # seed-lottery territory, 7 wins on every seed tried.
    if scale == "quick":
        n_steady, n_flaky, warm_days, total_days = 3, 3, 7, 14
        period, tick_s = 300.0, 900.0
        # 6 steady-cohort slots: the load must leave the scheduler a
        # real choice — at 8+ in flight, capacity forces both arms onto
        # the flaky hosts and the policies converge
        target_inflight, max_jobs = 6, 700
        job_hours = (2.0, 3.0, 4.0)
    else:
        n_steady, n_flaky, warm_days, total_days = 4, 4, 7, 16
        period, tick_s = 120.0, 600.0
        target_inflight, max_jobs = 8, 1200
        job_hours = (2.0, 4.0, 6.0, 8.0)

    steady = synthesize_testbed(
        n_steady, n_days=total_days, sample_period=period, seed=seed,
        profile=student_lab(), id_prefix="lab",
    )
    flaky = synthesize_testbed(
        n_flaky, n_days=total_days, sample_period=period, seed=seed + 1,
        profile=server_room(), id_prefix="srv",
    )
    traces = list(steady) + list(flaky)

    service = AvailabilityService()
    for trace in traces:
        service.register(trace.slice_days(0, warm_days))

    # Churn script: failure timelines from the *held-out* days of the
    # same traces the model was trained on, shared by both arms.
    classifier = service.classifier
    timelines = {
        t.machine_id: _failure_timeline(t, classifier) for t in traces
    }
    sim_start = warm_days * 86400.0
    sim_end = total_days * 86400.0

    job_cpu = 0.5  # two guest jobs fit per machine

    result = ExperimentResult(
        experiment_id="SCHED",
        description="availability-aware placement vs TR-blind least-loaded",
    )
    table = ResultTable(
        title="SCHED useful work and waste under trace-driven churn",
        columns=[
            "arm", "jobs", "completed", "useful_cpu_s", "wasted_cpu_s",
            "useful_rate", "replacements", "flaky_attempts",
            "place_p50_ms", "place_p99_ms",
        ],
    )
    arms: dict[str, dict[str, float]] = {}
    for name, predictive in (("predictive", True), ("blind", False)):
        arms[name] = _run_arm(
            predictive=predictive,
            service=service,
            timelines=timelines,
            job_hours=job_hours,
            target_inflight=target_inflight,
            max_jobs=max_jobs,
            sim_start=sim_start,
            sim_end=sim_end,
            tick_s=tick_s,
            job_cpu=job_cpu,
        )
        a = arms[name]
        table.add(
            name, a["created"], a["completed"],
            round(a["useful_cpu_s"], 1), round(a["wasted_cpu_s"], 1),
            round(a["useful_work_rate"], 4), a["replacements"],
            a["flaky_attempts"],
            round(a["place_p50_ms"], 2), round(a["place_p99_ms"], 2),
        )
    result.tables.append(table)

    pred, blind = arms["predictive"], arms["blind"]
    result.notes["useful_rate_predictive"] = round(pred["useful_work_rate"], 4)
    result.notes["useful_rate_blind"] = round(blind["useful_work_rate"], 4)
    result.notes["useful_rate_ratio"] = round(
        pred["useful_work_rate"] / max(blind["useful_work_rate"], 1e-9), 3
    )
    result.notes["wasted_predictive_cpu_s"] = round(pred["wasted_cpu_s"], 1)
    result.notes["wasted_blind_cpu_s"] = round(blind["wasted_cpu_s"], 1)
    result.notes["predictive_beats_blind"] = bool(
        pred["useful_work_rate"] > blind["useful_work_rate"]
        and pred["wasted_cpu_s"] < blind["wasted_cpu_s"]
    )

    # Perf-trajectory snapshot (BENCH_sched.json via `--bench-out`).
    # Placement p99 is gated lower-is-better as usual; useful-work
    # throughput is gated with the ':higher' suffix — a drop beyond the
    # relative threshold fails the build.
    result.bench = {
        "placement_p50_ms": pred["place_p50_ms"],
        "placement_p99_ms": pred["place_p99_ms"],
        "useful_work_rate": pred["useful_work_rate"],
        "wasted_cpu_seconds": pred["wasted_cpu_s"],
        "blind_useful_work_rate": blind["useful_work_rate"],
        "blind_wasted_cpu_seconds": blind["wasted_cpu_s"],
        "gate_keys": ["placement_p99_ms", "useful_work_rate:higher"],
    }
    return result
