"""The scheduling ops over a real TCP server.

Covers the client-facing ops (submit / job_status / cancel / jobs), the
internal replication op (job_put), the replace broadcast handler, and
the two degraded paths: a stale peer sending an old protocol version
(structured version error, connection survives), and a scheduling op
reaching a node running without a JobManager (structured
SchedulerDisabled).
"""

import asyncio
import json
import socket
import threading

import numpy as np
import pytest

from repro.core.windows import SECONDS_PER_DAY
from repro.sched import JobManager, SchedConfig
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.dispatch import DispatchConfig
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.server import ServeServer
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace


def idle_trace(mid, n_days=7, period=300.0):
    n = int(n_days * SECONDS_PER_DAY / period)
    return MachineTrace(
        mid, 0.0, period,
        np.full(n, 0.05), np.full(n, 400.0), np.ones(n, dtype=bool),
    )


class SchedServerThread:
    """ServeServer + JobManager on a dedicated event-loop thread."""

    def __init__(self):
        self.service = AvailabilityService()
        for mid in ("lab-00", "lab-01"):
            self.service.register(idle_trace(mid))
        # 1000x speedup: a 10 cpu-second job completes in 10ms of wall
        # time, so tests observe full lifecycles without sleeping.
        self.sched = JobManager(
            self.service, config=SchedConfig(speedup=1000.0), node="test"
        )
        self.loop = asyncio.new_event_loop()
        self.server = ServeServer(
            self.service, port=0,
            config=DispatchConfig(max_workers=2), sched=self.sched,
        )
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(10)

    @property
    def port(self):
        return self.server.port

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture()
def server():
    srv = SchedServerThread()
    yield srv
    srv.stop()


class TestSchedOps:
    def test_submit_status_lifecycle(self, server):
        with ServeClient(port=server.port) as client:
            out = client.submit("wire-1", 200.0, cpu=0.5)  # 0.2s at 1000x
            assert out["record"]["state"] == "placed"
            assert out["record"]["machine"] in ("lab-00", "lab-01")
            deadline = 50
            while deadline:
                status = client.job_status("wire-1")
                if status["state"] == "completed":
                    break
                deadline -= 1
                import time

                time.sleep(0.1)
            assert status["state"] == "completed"
            assert status["progress_seconds"] == pytest.approx(200.0)

    def test_cancel_and_jobs_listing(self, server):
        with ServeClient(port=server.port) as client:
            client.submit("wire-c", 1e9, cpu=0.25)
            cancelled = client.cancel("wire-c")
            assert cancelled["record"]["state"] == "cancelled"
            listing = client.jobs()
            assert [j["job"] for j in listing["jobs"]] == ["wire-c"]
            assert listing["stats"]["states"] == {"cancelled": 1}

    def test_unknown_job_is_structured_error(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeRequestError, match="unknown job"):
                client.job_status("ghost")
            # the connection survives the error response
            assert client.health()["status"] == "ok"

    def test_replace_reacts_to_node_death(self, server):
        with ServeClient(port=server.port) as client:
            placed = client.submit("wire-r", 1e9, cpu=0.5)
            machine = placed["record"]["machine"]
            out = client.request("replace", {"machines": [machine]}).result
            assert out["replaced"] == 1
            assert machine in out["down"]
            status = client.job_status("wire-r")
            assert status["machine"] != machine

    def test_job_put_replication(self, server):
        with ServeClient(port=server.port) as client:
            record = client.submit("wire-p", 1e9, cpu=0.25)["record"]
            newer = dict(record, version=record["version"] + 5, note="replica")
            out = client.request("job_put", {"record": newer}).result
            assert out == {"adopted": True, "version": newer["version"]}
            assert client.job_status("wire-p")["note"] == "replica"


class TestVersionGating:
    def test_v4_client_submit_gets_structured_error_not_drop(self, server):
        """A stale peer sending a scheduling op keeps its connection and
        receives a structured version error carrying its request id."""
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            f = sock.makefile("rwb")
            f.write(json.dumps({
                "v": 4, "id": "old-1", "op": "submit",
                "params": {"job": "j", "total_cpu_seconds": 10.0},
            }).encode() + b"\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["status"] == "error" and resp["id"] == "old-1"
            assert resp["error"]["type"] == "ProtocolError"
            assert "upgrade the client" in resp["error"]["message"]
            # same socket, well-formed current request: still served
            f.write(json.dumps({
                "v": PROTOCOL_VERSION, "id": "new-1", "op": "submit",
                "params": {"job": "j", "total_cpu_seconds": 10.0, "cpu": 0.25},
            }).encode() + b"\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["status"] == "ok" and resp["id"] == "new-1"
            assert resp["result"]["record"]["state"] == "placed"

    def test_every_sched_op_is_v5_gated(self, server):
        ops = {
            "submit": {"job": "j", "total_cpu_seconds": 1.0},
            "job_status": {"job": "j"},
            "cancel": {"job": "j"},
            "jobs": {},
            "replace": {"machines": []},
            "job_put": {"record": {}},
        }
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            f = sock.makefile("rwb")
            for op, params in ops.items():
                f.write(json.dumps(
                    {"v": 4, "id": op, "op": op, "params": params}
                ).encode() + b"\n")
            f.flush()
            for op in ops:
                resp = json.loads(f.readline())
                assert resp["status"] == "error" and resp["id"] == op
                assert "upgrade the client" in resp["error"]["message"]


class TestSchedulerDisabled:
    def test_sched_op_without_manager_structured_error(self):
        """A node running without --sched answers, not drops."""
        service = AvailabilityService()
        service.register(idle_trace("lab-00"))
        loop = asyncio.new_event_loop()
        server = ServeServer(service, port=0, config=DispatchConfig(max_workers=1))
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
        try:
            with ServeClient(port=server.port) as client:
                with pytest.raises(ServeRequestError, match="SchedulerDisabled"):
                    client.submit("j", 10.0)
                assert client.health()["sched"] is False
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()
