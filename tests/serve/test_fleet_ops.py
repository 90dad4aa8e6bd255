"""The fleet batch ops: ``predict_batch`` and ``fleet_scan``.

One wire call answers TR for many machines from one stacked kernel
solve; every answer must equal the scalar ``predict`` for the same
machine, and requests at an older protocol version must be refused
with a structured error.
"""

import json
import socket

import numpy as np
import pytest

from repro.core.windows import SECONDS_PER_DAY
from repro.serve.client import ServeClient, ServeRequestError
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace

from tests.serve.test_server import ServerThread


def lab_trace(mid, busy_hour=None, n_days=10, period=60.0):
    n_per_day = int(SECONDS_PER_DAY / period)
    load = np.full(n_days * n_per_day, 0.05)
    if busy_hour is not None:
        i0 = int(busy_hour * 3600 / period)
        for d in range(n_days):
            load[d * n_per_day + i0 : d * n_per_day + i0 + 20] = 0.95
    return MachineTrace(mid, 0.0, period, load, np.full(load.shape, 400.0))


MACHINES = ("calm", "busy9", "busy12")


@pytest.fixture(scope="module")
def server():
    svc = AvailabilityService()
    svc.register(lab_trace("calm"))
    svc.register(lab_trace("busy9", busy_hour=9.0))
    svc.register(lab_trace("busy12", busy_hour=12.0))
    srv = ServerThread(svc)
    yield srv
    srv.stop()


class TestPredictBatch:
    def test_all_machines_match_scalar_predict(self, server):
        with ServeClient(port=server.port) as client:
            batch = client.predict_batch(8, 3)
            for mid in MACHINES:
                scalar = client.predict(mid, 8, 3)
                assert batch[mid] == pytest.approx(scalar, abs=1e-9)
        assert set(batch) == set(MACHINES)

    def test_subset_of_machines(self, server):
        with ServeClient(port=server.port) as client:
            batch = client.predict_batch(8, 3, machines=["calm", "busy9"])
        assert set(batch) == {"calm", "busy9"}

    def test_empty_machine_list_is_empty_answer(self, server):
        with ServeClient(port=server.port) as client:
            batch = client.predict_batch(8, 3, machines=[])
        assert batch == {}

    def test_unknown_machine_is_an_error(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeRequestError, match="not registered"):
                client.predict_batch(8, 3, machines=["calm", "ghost"])

    def test_missing_ok_skips_unknown_machines(self, server):
        with ServeClient(port=server.port) as client:
            result = client._result(client.request(
                "predict_batch",
                {
                    "start_hour": 8, "hours": 3, "day_type": "weekday",
                    "machines": ["calm", "ghost"], "missing_ok": True,
                },
            ))
        assert [p["machine"] for p in result["predictions"]] == ["calm"]

    def test_machines_must_be_a_list(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeRequestError, match="machines"):
                client._result(client.request(
                    "predict_batch",
                    {"start_hour": 8, "hours": 3, "day_type": "weekday",
                     "machines": "calm"},
                ))


class TestFleetScan:
    def test_scan_ranked_best_first_matches_rank(self, server):
        with ServeClient(port=server.port) as client:
            scan = client.fleet_scan(8, 3)
            ranking = client.rank(8, 3)
        assert scan["count"] == len(MACHINES)
        scanned = [(e["machine"], e["tr"]) for e in scan["machines"]]
        ranked = [(e["machine"], e["tr"]) for e in ranking]
        assert [m for m, _ in scanned] == [m for m, _ in ranked]
        for (_, a), (_, b) in zip(scanned, ranked):
            assert a == pytest.approx(b, abs=1e-9)

    def test_entries_carry_fail_split_and_init_state(self, server):
        with ServeClient(port=server.port) as client:
            scan = client.fleet_scan(8, 3)
        for entry in scan["machines"]:
            fail = entry["fail"]
            assert set(fail) == {"s3", "s4", "s5"}
            assert entry["tr"] == pytest.approx(
                max(0.0, 1.0 - sum(fail.values())), abs=1e-9
            )
            assert entry["init_state"] in ("S1", "S2", "S3", "S4", "S5")

    def test_horizons_hours_adds_subwindow_trs(self, server):
        with ServeClient(port=server.port) as client:
            scan = client.fleet_scan(8, 4, horizons_hours=[1.0, 2.0])
        assert scan["horizons_hours"] == [1.0, 2.0]
        for entry in scan["machines"]:
            assert len(entry["tr_at"]) == 2
            # Shorter windows can only be safer.
            assert entry["tr_at"][0] >= entry["tr_at"][1] >= entry["tr"] - 1e-9

    def test_bad_horizons_rejected(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeRequestError, match="horizons_hours"):
                client.fleet_scan(8, 3, horizons_hours=[-1.0])

    def test_scan_subset(self, server):
        with ServeClient(port=server.port) as client:
            scan = client.fleet_scan(8, 3, machines=["busy9"])
        assert [e["machine"] for e in scan["machines"]] == ["busy9"]


class TestProtocolGating:
    def test_pre_v7_request_cannot_use_predict_batch(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(json.dumps(
                {"v": 6, "id": "x", "op": "predict_batch",
                 "params": {"start_hour": 8, "hours": 3, "day_type": "weekday"}}
            ).encode() + b"\n")
            fh.flush()
            resp = json.loads(fh.readline())
        assert resp["status"] == "error"
        assert "upgrade the client" in resp["error"]["message"]

    def test_pre_v7_request_cannot_use_fleet_scan(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(json.dumps(
                {"v": 6, "id": "x", "op": "fleet_scan",
                 "params": {"start_hour": 8, "hours": 3, "day_type": "weekday"}}
            ).encode() + b"\n")
            fh.flush()
            resp = json.loads(fh.readline())
        assert resp["status"] == "error"
        assert "upgrade the client" in resp["error"]["message"]

    def test_health_reports_current_protocol_version(self, server):
        from repro.serve.protocol import PROTOCOL_VERSION

        with ServeClient(port=server.port) as client:
            health = client.health()
        assert health["protocol_version"] == PROTOCOL_VERSION
