"""JobManager lifecycle, recovery choices, and WAL durability.

The manager runs against a stub availability service (fixed TR per
machine) and an injected clock, so every lifecycle transition is
deterministic and instantaneous.
"""

import pytest

from repro.core.windows import AbsoluteWindow
from repro.sched import (
    STATE_CANCELLED,
    STATE_COMPLETED,
    STATE_PENDING,
    STATE_PLACED,
    STATE_RUNNING,
    JobManager,
    SchedConfig,
    UnknownJob,
)


class FakeService:
    """machine -> constant TR; the whole surface the manager touches."""

    def __init__(self, trs):
        self.trs = dict(trs)

    @property
    def machine_ids(self):
        return list(self.trs)

    def predict_batch(self, machines, window):
        assert isinstance(window, AbsoluteWindow)
        return {m: self.trs[m] for m in machines}


@pytest.fixture()
def clock():
    now = [0.0]
    return now


def mk_manager(service, clock, *, directory=None, **cfg):
    return JobManager(
        service,
        config=SchedConfig(**cfg),
        directory=directory,
        clock=lambda: clock[0],
        node="test",
    )


class TestLifecycle:
    def test_submit_places_on_best_tr(self, clock):
        svc = FakeService({"good": 0.9, "bad": 0.3})
        m = mk_manager(svc, clock)
        out = m.submit("j1", total_cpu_seconds=100.0, cpu=0.5)
        assert out["record"]["state"] == STATE_PLACED
        assert out["record"]["machine"] == "good"
        assert "refusal" not in out

    def test_clock_drives_running_and_completion(self, clock):
        m = mk_manager(FakeService({"m0": 0.9}), clock)
        m.submit("j1", total_cpu_seconds=100.0)
        clock[0] = 40.0
        status = m.status("j1")
        assert status["state"] == STATE_RUNNING
        assert status["progress_seconds"] == pytest.approx(40.0)
        assert status["remaining_seconds"] == pytest.approx(60.0)
        clock[0] = 150.0
        status = m.status("j1")
        assert status["state"] == STATE_COMPLETED
        assert status["completed_at"] == pytest.approx(100.0)
        assert status["progress_seconds"] == pytest.approx(100.0)

    def test_speedup_compresses_wall_time(self, clock):
        m = mk_manager(FakeService({"m0": 0.9}), clock, speedup=50.0)
        m.submit("j1", total_cpu_seconds=100.0)
        clock[0] = 3.0  # 150 cpu-seconds of progress at 50x
        assert m.status("j1")["state"] == STATE_COMPLETED

    def test_resubmit_is_idempotent(self, clock):
        m = mk_manager(FakeService({"m0": 0.9}), clock)
        first = m.submit("j1", total_cpu_seconds=100.0)
        again = m.submit("j1", total_cpu_seconds=999.0)
        assert again["resubmitted"] is True
        assert again["record"]["total_cpu_seconds"] == 100.0
        assert again["record"]["version"] == first["record"]["version"]

    def test_cancel_idempotent_and_unknown_raises(self, clock):
        m = mk_manager(FakeService({"m0": 0.9}), clock)
        m.submit("j1", total_cpu_seconds=100.0)
        out = m.cancel("j1")
        assert out["record"]["state"] == STATE_CANCELLED
        assert m.cancel("j1")["record"]["state"] == STATE_CANCELLED
        with pytest.raises(UnknownJob):
            m.cancel("ghost")
        with pytest.raises(UnknownJob):
            m.status("ghost")

    def test_stats_counts_states(self, clock):
        m = mk_manager(FakeService({"m0": 0.9}), clock)
        m.submit("j1", total_cpu_seconds=100.0)
        m.submit("j2", total_cpu_seconds=100.0, cpu=1.0)  # no capacity left
        stats = m.stats()
        assert stats["jobs"] == 2
        assert stats["states"][STATE_PLACED] == 1
        assert stats["states"][STATE_PENDING] == 1
        assert stats["durable"] is False


class TestRefusalAndRetry:
    def test_no_machines_structured_refusal(self, clock):
        m = mk_manager(FakeService({}), clock)
        out = m.submit("j1", total_cpu_seconds=100.0)
        assert out["record"]["state"] == STATE_PENDING
        assert out["refusal"]["reason"] == "no_feasible_machine"

    def test_pending_retries_when_pool_grows(self, clock):
        svc = FakeService({})
        m = mk_manager(svc, clock)
        m.submit("j1", total_cpu_seconds=100.0)
        svc.trs["late"] = 0.8  # a machine registers after the refusal
        clock[0] = 10.0
        m.refresh()  # the retry places; running from the next tick on
        clock[0] = 11.0
        status = m.status("j1")
        assert status["state"] == STATE_RUNNING
        assert status["machine"] == "late"
        assert status["attempts"][-1]["reason"] == "retry"

    def test_capacity_is_respected_and_frees_on_completion(self, clock):
        m = mk_manager(FakeService({"m0": 0.9}), clock)
        m.submit("j1", total_cpu_seconds=50.0, cpu=0.7)
        out = m.submit("j2", total_cpu_seconds=50.0, cpu=0.7)
        assert out["record"]["state"] == STATE_PENDING  # 1.4 > 1.0 capacity
        clock[0] = 60.0  # j1 finishes, freeing the machine
        m.refresh()
        clock[0] = 61.0
        assert m.status("j2")["state"] == STATE_RUNNING


class TestReplace:
    def test_restart_before_first_checkpoint(self, clock):
        m = mk_manager(
            FakeService({"a": 0.9, "b": 0.9}), clock, checkpoint_interval_s=600.0
        )
        machine = m.submit("j1", total_cpu_seconds=1000.0)["record"]["machine"]
        clock[0] = 50.0  # progress 50, checkpointed 0
        out = m.replace([machine], reason="node_down")
        assert out["replaced"] == 1
        assert out["actions"] == {"restart": 1}
        status = m.status("j1")
        assert status["machine"] != machine
        assert status["wasted_cpu_seconds"] == pytest.approx(50.0)
        assert status["carried_seconds"] == 0.0

    def test_resume_from_checkpoint_when_cheaper(self, clock):
        m = mk_manager(
            FakeService({"a": 0.9, "b": 0.9}), clock, checkpoint_interval_s=100.0
        )
        machine = m.submit("j1", total_cpu_seconds=1000.0)["record"]["machine"]
        clock[0] = 250.0  # progress 250, checkpointed 200
        out = m.replace([machine], reason="node_down")
        assert out["actions"] == {"resume": 1}
        status = m.status("j1")
        assert status["carried_seconds"] == pytest.approx(200.0)
        assert status["wasted_cpu_seconds"] == pytest.approx(50.0)

    def test_drain_migrates_full_progress(self, clock):
        m = mk_manager(
            FakeService({"a": 0.9, "b": 0.9}), clock, checkpoint_interval_s=600.0
        )
        machine = m.submit("j1", total_cpu_seconds=1000.0)["record"]["machine"]
        clock[0] = 250.0  # nothing checkpointed, but the host is reachable
        out = m.replace([machine], reason="drain")
        assert out["actions"] == {"migrate": 1}
        status = m.status("j1")
        assert status["carried_seconds"] == pytest.approx(250.0)
        assert status["wasted_cpu_seconds"] == 0.0

    def test_down_machines_excluded_until_restore(self, clock):
        svc = FakeService({"a": 0.9, "b": 0.3})
        m = mk_manager(svc, clock)
        m.replace(["a"], reason="node_down")
        assert m.submit("j1", total_cpu_seconds=100.0)["record"]["machine"] == "b"
        m.replace(["a"], restore=True)
        assert m.stats()["down_machines"] == []
        assert m.submit("j2", total_cpu_seconds=100.0)["record"]["machine"] == "a"

    def test_all_machines_down_parks_job_pending(self, clock):
        m = mk_manager(FakeService({"only": 0.9}), clock)
        m.submit("j1", total_cpu_seconds=100.0)
        clock[0] = 10.0
        out = m.replace(["only"], reason="node_down")
        assert out["replaced"] == 1
        record = m.status("j1")
        assert record["state"] == STATE_PENDING
        # the machine comes back: the retry path picks the job up again
        m.replace(["only"], restore=True)
        clock[0] = 20.0
        m.refresh()
        clock[0] = 21.0
        assert m.status("j1")["state"] == STATE_RUNNING


class TestAdopt:
    def test_higher_version_wins(self, clock):
        m = mk_manager(FakeService({"m0": 0.9}), clock)
        record = m.submit("j1", total_cpu_seconds=100.0)["record"]
        newer = dict(record, version=record["version"] + 3, note="replica")
        assert m.adopt(newer)["adopted"] is True
        assert m.status("j1")["note"] == "replica"

    def test_stale_version_rejected(self, clock):
        m = mk_manager(FakeService({"m0": 0.9}), clock)
        record = m.submit("j1", total_cpu_seconds=100.0)["record"]
        stale = dict(record, version=0, note="old")
        out = m.adopt(stale)
        assert out["adopted"] is False
        assert out["version"] == record["version"]
        assert m.status("j1")["note"] != "old"


class TestDurability:
    def test_restart_recovers_every_job(self, clock, tmp_path):
        svc = FakeService({"a": 0.9, "b": 0.8})
        m = mk_manager(svc, clock, directory=tmp_path / "sched")
        m.submit("j1", total_cpu_seconds=100.0, cpu=0.4)
        m.submit("j2", total_cpu_seconds=500.0, cpu=0.4)
        m.submit("j3", total_cpu_seconds=100.0, cpu=2.0)  # refused: pending
        m.close()

        clock[0] = 150.0
        m2 = mk_manager(svc, clock, directory=tmp_path / "sched")
        assert m2.recovered_jobs == 3
        # nothing lost, and the clock-driven states re-derive correctly:
        # j1 finished while the scheduler was down
        assert m2.status("j1")["state"] == STATE_COMPLETED
        assert m2.status("j2")["state"] == STATE_RUNNING
        assert m2.status("j2")["progress_seconds"] == pytest.approx(150.0)
        assert m2.status("j3")["state"] == STATE_PENDING
        m2.close()

    def test_recovery_keeps_highest_version(self, clock, tmp_path):
        svc = FakeService({"a": 0.9})
        m = mk_manager(svc, clock, directory=tmp_path / "sched")
        m.submit("j1", total_cpu_seconds=100.0)
        m.cancel("j1")  # second WAL snapshot, higher version
        m.close()
        m2 = mk_manager(svc, clock, directory=tmp_path / "sched")
        assert m2.recovered_jobs == 1
        assert m2.status("j1")["state"] == STATE_CANCELLED
        m2.close()

    def test_garbled_wal_record_skipped(self, clock, tmp_path):
        svc = FakeService({"a": 0.9})
        directory = tmp_path / "sched"
        m = mk_manager(svc, clock, directory=directory)
        m.submit("j1", total_cpu_seconds=100.0)
        m.close()
        # corrupt the tail: recovery must keep the intact records
        wal = sorted(directory.glob("sched-*.wal"))[-1]
        with wal.open("ab") as f:
            f.write(b"\x00garbage")
        m2 = mk_manager(svc, clock, directory=directory)
        assert m2.recovered_jobs == 1
        m2.close()
