"""JobManager: job lifecycles, durable state, and TR-driven recovery.

The manager owns every :class:`~repro.sched.jobs.JobRecord` on this
node, gluing together the three ingredients of the scheduling tier:

* the :class:`~repro.sched.engine.PlacementEngine` picks machines by TR
  over the job's remaining-execution window × DRR packing, with the TR
  queries answered by the node's own :class:`AvailabilityService`;
* a **scheduler WAL** (the store tier's ``SegmentWriter`` framing, same
  as the audit journal) makes every state transition durable: a full
  JSON snapshot of the record per transition, recovered by keeping the
  highest ``version`` per job — a restarted scheduler reconstructs its
  queue exactly, and jobs that finished while it was down are
  discovered as completed on the first read;
* on node-death evidence (the membership prober, via the router's
  ``replace`` broadcast) affected jobs are re-placed, choosing
  checkpoint-resume vs. migrate vs. restart-from-scratch by the
  expected-cost comparison of :mod:`repro.core.recovery` under the TR
  of the *new* window.

Execution is lazy and clock-driven (see :mod:`repro.sched.jobs`): no
threads, no timers.  ``refresh()`` — called on every read and mutation
— promotes placed→running, discovers completions, and retries pending
jobs.  The clock is injectable so the bench and tests drive simulated
time deterministically.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.recovery import (
    ACTION_MIGRATE,
    ACTION_RESTART,
    ACTION_RESUME,
    RecoveryCosts,
    choose_recovery_action,
)
from repro.core.windows import AbsoluteWindow
from repro.obs.instruments import instrument
from repro.obs.tracing import start_span
from repro.sched.engine import (
    Candidate,
    JobDemand,
    Placement,
    PlacementEngine,
    PlacementRefusal,
)
from repro.sched.jobs import (
    ACTIVE_STATES,
    STATE_CANCELLED,
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_PLACED,
    STATE_RANK,
    STATE_RUNNING,
    JobRecord,
)
from repro.store.wal import FsyncPolicy, SegmentWriter, recover_segment

__all__ = ["SchedConfig", "JobManager", "UnknownJob"]

#: Roll to a fresh WAL segment past this size (same bound as the audit
#: journal) so recovery replays bounded files.
_MAX_SEGMENT_BYTES = 4 * 1024 * 1024


class UnknownJob(KeyError):
    """A job id this manager has never seen."""


@dataclass(frozen=True)
class SchedConfig:
    """Tuning knobs of one JobManager."""

    #: Guest CPU-seconds completed per wall-clock second (tests and the
    #: bench use large values to compress hours into milliseconds).
    speedup: float = 1.0
    #: Engine blend between TR and packing balance (see PlacementEngine).
    tr_weight: float = 0.7
    #: False builds the TR-blind least-loaded baseline (the bench's
    #: control arm); production serving always runs predictive.
    predictive: bool = True
    #: Default CPU-seconds between guest checkpoints (per-job override
    #: via submit).
    checkpoint_interval_s: float = 600.0
    #: Modeled capacity of every candidate machine.
    cpu_capacity: float = 1.0
    mem_capacity_mb: float = 1024.0
    #: Floor on the TR prediction window (very short remaining work
    #: still asks about a meaningful horizon).
    min_window_s: float = 60.0
    #: TR assumed for every candidate when the batched prediction fails.
    fallback_tr: float = 0.5
    costs: RecoveryCosts = RecoveryCosts()

    def __post_init__(self) -> None:
        if self.speedup <= 0.0:
            raise ValueError(f"speedup must be positive, got {self.speedup}")
        if self.checkpoint_interval_s <= 0.0:
            raise ValueError(
                f"checkpoint interval must be positive, got {self.checkpoint_interval_s}"
            )
        if not 0.0 < self.fallback_tr <= 1.0:
            raise ValueError(f"fallback_tr must be in (0, 1], got {self.fallback_tr}")


class JobManager:
    """Owns job lifecycles on one serving node.

    ``directory=None`` keeps the same state machine purely in memory
    (what ``repro serve`` without ``--sched-dir`` runs); with a
    directory every transition is WAL-durable and ``__init__`` recovers
    the full job table before serving.
    """

    def __init__(
        self,
        service: Any,
        *,
        config: SchedConfig | None = None,
        directory: str | Path | None = None,
        fsync: FsyncPolicy | str = "always",
        clock: Callable[[], float] = time.time,
        node: str = "",
    ) -> None:
        self.service = service
        self.config = config or SchedConfig()
        self.clock = clock
        self.node = node
        self.engine = PlacementEngine(
            tr_weight=self.config.tr_weight, predictive=self.config.predictive
        )
        self.directory = None if directory is None else Path(directory)
        self._fsync = FsyncPolicy.parse(fsync)
        self._writer: SegmentWriter | None = None
        self._segment_index = 0
        self._lock = threading.RLock()
        self._jobs: dict[str, JobRecord] = {}
        self._down: set[str] = set()
        self.recovered_jobs = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._recover()
            self._open_writer()
        self._set_running_gauge()

    # ------------------------------------------------------------------ #
    # WAL: full-record snapshots, highest version wins on recovery
    # ------------------------------------------------------------------ #

    def _segments(self) -> list[Path]:
        assert self.directory is not None
        return sorted(self.directory.glob("sched-*.wal"))

    def _recover(self) -> None:
        for path in self._segments():
            recovered = recover_segment(path)
            for payload in recovered.payloads:
                record = self._decode(payload)
                if record is None:
                    continue
                current = self._jobs.get(record.job_id)
                if current is None or record.version >= current.version:
                    self._jobs[record.job_id] = record
        self.recovered_jobs = len(self._jobs)

    @staticmethod
    def _decode(payload: bytes) -> JobRecord | None:
        try:
            obj = json.loads(payload)
            if obj.pop("kind", None) != "job":
                return None
            return JobRecord.from_dict(obj)
        except (ValueError, TypeError, KeyError):
            return None  # garbled record: skip, don't poison recovery

    def _open_writer(self) -> None:
        assert self.directory is not None
        segments = self._segments()
        if segments:
            last = segments[-1]
            self._segment_index = int(last.stem.split("-")[1])
            if last.stat().st_size < _MAX_SEGMENT_BYTES:
                self._writer = SegmentWriter(last, self._fsync)
                return
            self._segment_index += 1
        self._writer = SegmentWriter(
            self.directory / f"sched-{self._segment_index:08d}.wal", self._fsync
        )

    def _log(self, record: JobRecord) -> None:
        if self._writer is None:
            return
        if self._writer.size >= _MAX_SEGMENT_BYTES:
            self._writer.close()
            self._segment_index += 1
            assert self.directory is not None
            self._writer = SegmentWriter(
                self.directory / f"sched-{self._segment_index:08d}.wal", self._fsync
            )
        payload = json.dumps(
            {"kind": "job", **record.to_dict()}, separators=(",", ":")
        ).encode("utf-8")
        self._writer.append(payload)

    def _store(self, record: JobRecord) -> JobRecord:
        """Commit one record: in-memory table + WAL, single source of truth."""
        self._jobs[record.job_id] = record
        self._log(record)
        return record

    # ------------------------------------------------------------------ #
    # lazy clock-driven lifecycle
    # ------------------------------------------------------------------ #

    def refresh(self, now: float | None = None) -> None:
        """Advance every job to its clock-implied state; retry pending."""
        with self._lock:
            self._refresh_locked(self.clock() if now is None else now)

    def _refresh_locked(self, now: float) -> None:
        cfg = self.config
        for job_id in list(self._jobs):
            record = self._jobs[job_id]
            if record.terminal or record.state == STATE_PENDING:
                continue
            attempt = record.attempt
            if attempt is None:  # defensive: active without an attempt
                self._store(record.with_state(STATE_PENDING, machine=None))
                continue
            if record.progress_at(now, cfg.speedup) >= record.total_cpu_seconds:
                finished = (
                    attempt.started_at
                    + (record.total_cpu_seconds - record.carried_seconds) / cfg.speedup
                )
                self._store(
                    record.with_state(STATE_COMPLETED, completed_at=finished)
                )
                instrument("sched_jobs_completed_total").inc()
            elif record.state == STATE_PLACED and now > attempt.started_at:
                self._store(record.with_state(STATE_RUNNING))
        # Retry jobs parked pending (earlier refusals) now that the
        # machine pool may have changed.
        for job_id in list(self._jobs):
            record = self._jobs[job_id]
            if record.state == STATE_PENDING:
                self._try_place(record, now, record.carried_seconds, "retry")
        self._set_running_gauge()

    def _set_running_gauge(self) -> None:
        active = sum(1 for r in self._jobs.values() if r.state in ACTIVE_STATES)
        instrument("sched_jobs_running").set(active)

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #

    def _trs(self, machines: list[str], window: AbsoluteWindow) -> dict[str, float]:
        """TR per machine from one ``predict_batch`` call (one fleet solve).

        If the call raises, every candidate is scored ``fallback_tr``, so
        placement still proceeds on packing alone.
        """
        if not machines:
            return {}
        try:
            trs = self.service.predict_batch(list(machines), window)
            return {m: float(trs[m]) for m in machines}
        except Exception:
            return dict.fromkeys(machines, self.config.fallback_tr)

    def _candidates(self, job: JobRecord, now: float) -> list[Candidate]:
        cfg = self.config
        remaining = job.remaining_at(now, cfg.speedup)
        window = AbsoluteWindow(
            now, max(cfg.min_window_s, remaining / cfg.speedup)
        )
        committed_cpu: dict[str, float] = {}
        committed_mem: dict[str, float] = {}
        for other in self._jobs.values():
            if other.job_id == job.job_id or other.state not in ACTIVE_STATES:
                continue
            assert other.machine is not None
            committed_cpu[other.machine] = (
                committed_cpu.get(other.machine, 0.0) + other.cpu
            )
            committed_mem[other.machine] = (
                committed_mem.get(other.machine, 0.0) + other.mem_mb
            )
        pool = [m for m in sorted(self.service.machine_ids) if m not in self._down]
        trs = self._trs(pool, window)
        return [
            Candidate(
                machine_id=m,
                tr=trs[m],
                cpu_capacity=cfg.cpu_capacity,
                mem_capacity_mb=cfg.mem_capacity_mb,
                cpu_committed=committed_cpu.get(m, 0.0),
                mem_committed_mb=committed_mem.get(m, 0.0),
            )
            for m in pool
        ]

    def _try_place(
        self, record: JobRecord, now: float, carried: float, reason: str
    ) -> tuple[JobRecord, Placement | PlacementRefusal]:
        """Place (or re-place) one job; commits the resulting record."""
        t0 = time.perf_counter()
        demand = JobDemand(job_id=record.job_id, cpu=record.cpu, mem_mb=record.mem_mb)
        with start_span(
            "sched.place", "sched", job=record.job_id, reason=reason
        ) as span:
            decision = self.engine.place(demand, self._candidates(record, now))
            if isinstance(decision, Placement):
                record = self._store(
                    record.placed_on(decision.machine_id, now, carried, reason)
                )
                if span is not None:
                    span.set(machine=decision.machine_id, tr=round(decision.tr, 4))
                instrument("sched_placements_total").labels(outcome="placed").inc()
            else:
                record = self._store(
                    record.with_state(
                        STATE_PENDING,
                        machine=None,
                        carried_seconds=carried,
                        note=decision.detail,
                    )
                )
                instrument("sched_placements_total").labels(outcome="refused").inc()
        instrument("sched_placement_latency_seconds").observe(
            time.perf_counter() - t0
        )
        return record, decision

    # ------------------------------------------------------------------ #
    # public operations (the dispatcher's handlers call these)
    # ------------------------------------------------------------------ #

    def submit(
        self,
        job_id: str,
        *,
        total_cpu_seconds: float,
        cpu: float = 1.0,
        mem_mb: float = 64.0,
        checkpoint_interval_s: float | None = None,
    ) -> dict[str, Any]:
        """Create and place a job; idempotent on resubmission of the same id."""
        with self._lock:
            now = self.clock()
            self._refresh_locked(now)
            existing = self._jobs.get(job_id)
            if existing is not None:
                return {"record": existing.to_dict(), "resubmitted": True}
            record = JobRecord(
                job_id=job_id,
                total_cpu_seconds=float(total_cpu_seconds),
                cpu=float(cpu),
                mem_mb=float(mem_mb),
                state=STATE_PENDING,
                submitted_at=now,
                checkpoint_interval_s=float(
                    checkpoint_interval_s
                    if checkpoint_interval_s is not None
                    else self.config.checkpoint_interval_s
                ),
            )
            instrument("sched_jobs_submitted_total").inc()
            record, decision = self._try_place(record, now, 0.0, "submit")
            self._set_running_gauge()
            result: dict[str, Any] = {"record": record.to_dict()}
            if isinstance(decision, PlacementRefusal):
                result["refusal"] = decision.to_dict()
            return result

    def adopt(self, record_dict: Mapping[str, Any]) -> dict[str, Any]:
        """Upsert a replicated record; the higher version always wins.

        This is the ``job_put`` replication entry point: the placing
        owner pushes full records to the other R-1 owners (and back to
        itself, where the upsert is a no-op).  Ties on version prefer
        the later lifecycle stage so replicas converge.
        """
        record = JobRecord.from_dict(record_dict)
        with self._lock:
            current = self._jobs.get(record.job_id)
            if current is not None and (
                (current.version, STATE_RANK[current.state])
                >= (record.version, STATE_RANK[record.state])
            ):
                return {"adopted": False, "version": current.version}
            self._store(record)
            self._set_running_gauge()
            return {"adopted": True, "version": record.version}

    def status(self, job_id: str) -> dict[str, Any]:
        with self._lock:
            now = self.clock()
            self._refresh_locked(now)
            record = self._jobs.get(job_id)
            if record is None:
                raise UnknownJob(job_id)
            cfg = self.config
            out = record.to_dict()
            out["progress_seconds"] = round(record.progress_at(now, cfg.speedup), 3)
            out["checkpointed_seconds"] = round(
                record.checkpointed_at(now, cfg.speedup), 3
            )
            out["remaining_seconds"] = round(record.remaining_at(now, cfg.speedup), 3)
            return out

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a job; idempotent (cancelling a terminal job is a no-op)."""
        with self._lock:
            self._refresh_locked(self.clock())
            record = self._jobs.get(job_id)
            if record is None:
                raise UnknownJob(job_id)
            if not record.terminal:
                record = self._store(
                    record.with_state(STATE_CANCELLED, note="cancelled by client")
                )
            self._set_running_gauge()
            return {"record": record.to_dict()}

    def list_jobs(self) -> list[dict[str, Any]]:
        with self._lock:
            self._refresh_locked(self.clock())
            return [
                self._jobs[job_id].to_dict() for job_id in sorted(self._jobs)
            ]

    # ------------------------------------------------------------------ #
    # failure recovery
    # ------------------------------------------------------------------ #

    def replace(
        self,
        machines: list[str],
        *,
        reason: str = "node_down",
        restore: bool = False,
        migratable: bool | None = None,
    ) -> dict[str, Any]:
        """React to machines dying (or coming back).

        ``restore=True`` removes the machines from the exclusion set —
        jobs are *not* moved back (migrating healthy work is all cost,
        no benefit) but new placements may use them again.  Otherwise
        the machines join the exclusion set and every active job on
        them is re-placed, choosing resume / migrate / restart by
        expected-cost comparison under the TR of the new window.
        ``migratable`` defaults to True only for proactive reasons
        (``drain*``): a SIGKILLed host has nothing left to migrate.
        """
        with self._lock:
            now = self.clock()
            self._refresh_locked(now)
            if restore:
                self._down.difference_update(machines)
                return {"restored": sorted(machines), "replaced": 0, "actions": {}}
            self._down.update(machines)
            if migratable is None:
                migratable = reason.startswith("drain")
            affected = [
                r
                for r in self._jobs.values()
                if r.state in ACTIVE_STATES and r.machine in set(machines)
            ]
            actions: dict[str, int] = {}
            cfg = self.config
            with start_span(
                "sched.replace", "sched", reason=reason, machines=len(machines)
            ) as span:
                for record in affected:
                    progress = record.progress_at(now, cfg.speedup)
                    checkpointed = record.checkpointed_at(now, cfg.speedup)
                    remaining_wall = max(
                        cfg.min_window_s,
                        (record.total_cpu_seconds - checkpointed) / cfg.speedup,
                    )
                    # TR of the best surviving candidate's window decides
                    # the failure rate the cost model discounts by.
                    survivors = [
                        m
                        for m in sorted(self.service.machine_ids)
                        if m not in self._down
                    ]
                    best_tr = max(
                        self._trs(
                            survivors, AbsoluteWindow(now, remaining_wall)
                        ).values(),
                        default=cfg.fallback_tr,
                    )
                    decision = choose_recovery_action(
                        total_work_seconds=record.total_cpu_seconds,
                        progress_seconds=progress,
                        checkpointed_seconds=checkpointed,
                        new_host_tr=best_tr,
                        window_seconds=remaining_wall * cfg.speedup,
                        costs=cfg.costs,
                        migratable=migratable,
                    )
                    carried = {
                        ACTION_RESUME: checkpointed,
                        ACTION_MIGRATE: progress,
                        ACTION_RESTART: 0.0,
                    }[decision.action]
                    wasted = progress - carried
                    if wasted > 0.0:
                        instrument("sched_wasted_cpu_seconds_total").inc(wasted)
                    record = dc_replace(
                        record, wasted_cpu_seconds=record.wasted_cpu_seconds + wasted
                    )
                    self._try_place(record, now, carried, decision.action)
                    instrument("sched_replacements_total").labels(
                        action=decision.action
                    ).inc()
                    actions[decision.action] = actions.get(decision.action, 0) + 1
                if span is not None:
                    span.set(replaced=len(affected))
            self._set_running_gauge()
            return {
                "replaced": len(affected),
                "actions": actions,
                "down": sorted(self._down),
            }

    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, Any]:
        with self._lock:
            counts: dict[str, int] = {}
            for record in self._jobs.values():
                counts[record.state] = counts.get(record.state, 0) + 1
            return {
                "jobs": len(self._jobs),
                "states": counts,
                "down_machines": sorted(self._down),
                "durable": self.directory is not None,
            }

    def sync(self) -> None:
        if self._writer is not None:
            self._writer.sync()

    def close(self) -> None:
        with self._lock:
            if self._writer is not None:
                self._writer.close(sync=True)
                self._writer = None

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
