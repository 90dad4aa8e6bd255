"""The ``extend`` op: streaming ingest over the wire, and the clients'
bounded backpressure retry."""

import asyncio
import json
import socket
import threading

import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.windows import ClockWindow, DayType
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.dispatch import DispatchConfig
from repro.serve.server import ServeServer
from repro.serve.protocol import OPS, PROTOCOL_VERSION, Request
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace

from tests.serve.test_server import ServerThread, idle_trace


def tail_chunk(trace, n=40):
    """A continuation chunk starting where ``trace`` ends."""
    return MachineTrace(
        trace.machine_id, trace.end_time, trace.sample_period,
        trace.load[:n], trace.free_mem_mb[:n], trace.up[:n],
    )


@pytest.fixture()
def server():
    svc = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
    svc.register(idle_trace("m0"))
    srv = ServerThread(svc, DispatchConfig(max_workers=2, queue_depth=32))
    yield srv
    srv.stop()


class TestExtendOp:
    def test_extend_grows_history(self, server):
        with ServeClient(port=server.port) as client:
            before = client.health()["machines"]
            base = idle_trace("m0")
            result = client.extend(tail_chunk(base))
        assert result["machine"] == "m0"
        assert result["appended"] == 40
        assert result["created"] is False
        assert result["n_samples"] == base.n_samples + 40
        with ServeClient(port=server.port) as client:
            assert client.health()["machines"] == before

    def test_extend_unknown_machine_creates_it(self, server):
        chunk = idle_trace("fresh", n_days=2)
        with ServeClient(port=server.port) as client:
            result = client.extend(chunk)
            assert result["created"] is True
            assert result["n_samples"] == chunk.n_samples
            assert client.health()["machines"] == 2

    def test_extend_is_idempotent_on_retry(self, server):
        base = idle_trace("m0")
        chunk = tail_chunk(base)
        with ServeClient(port=server.port) as client:
            first = client.extend(chunk)
            retry = client.extend(chunk)  # same chunk delivered twice
        assert retry["appended"] == 0
        assert retry["n_samples"] == first["n_samples"]

    def test_extend_gap_is_an_error(self, server):
        base = idle_trace("m0")
        gap = MachineTrace(
            "m0", base.end_time + 600 * base.sample_period, base.sample_period,
            base.load[:10], base.free_mem_mb[:10], base.up[:10],
        )
        with ServeClient(port=server.port) as client:
            resp = client.request("extend", _params_of(gap))
        assert resp.status == "error"
        assert "lost" in resp.error["message"]

    def test_extend_matches_direct_service(self):
        base = idle_trace("twin", fail_hour=9.0)
        chunk = tail_chunk(base, n=200)

        served = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
        served.register(base)
        srv = ServerThread(served, DispatchConfig(max_workers=1, queue_depth=8))
        try:
            with ServeClient(port=srv.port) as client:
                client.extend(chunk)
                tr_wire = client.predict("twin", 8, 3)
        finally:
            srv.stop()

        direct = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
        direct.register(base)
        direct.append_samples(chunk)
        tr_direct = direct.predict(
            "twin", ClockWindow.from_hours(8, 3), DayType.WEEKDAY
        )
        assert tr_wire == tr_direct


def _params_of(trace):
    from repro.serve.client import _trace_params

    return _trace_params(trace)


class TestVersionGating:
    def _raw_roundtrip(self, port, obj):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(json.dumps(obj).encode() + b"\n")
            fh.flush()
            return json.loads(fh.readline())

    def test_clients_send_each_op_at_protocol_version(self):
        assert PROTOCOL_VERSION == 8
        for op in OPS:
            assert Request(op=op).to_wire()["v"] == PROTOCOL_VERSION

    def test_v1_request_cannot_use_extend(self, server):
        resp = self._raw_roundtrip(
            server.port, {"v": 1, "id": "x", "op": "extend", "params": {}}
        )
        assert resp["status"] == "error"
        assert resp["error"]["type"] == "ProtocolError"
        assert "upgrade the client" in resp["error"]["message"]

    def test_unknown_version_is_structured_error(self, server):
        resp = self._raw_roundtrip(
            server.port, {"v": 99, "id": "x", "op": "predict", "params": {}}
        )
        assert resp["status"] == "error"
        assert resp["error"]["type"] == "ProtocolError"
        assert "unsupported protocol version" in resp["error"]["message"]

    def test_v1_ops_still_served(self, server):
        v1 = {"predict", "rank", "select", "horizon", "register", "health"}
        assert v1 <= set(OPS)
        resp = self._raw_roundtrip(
            server.port, {"v": PROTOCOL_VERSION, "id": "h", "op": "health"}
        )
        assert resp["status"] == "ok"


class _SheddingServer:
    """A scripted server: answers ``shed`` N times, then real responses."""

    def __init__(self, shed_first=2):
        self.shed_first = shed_first
        self.requests_seen = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._sock.accept()
        with conn:
            fh = conn.makefile("rwb")
            while True:
                line = fh.readline()
                if not line:
                    return
                req = json.loads(line)
                self.requests_seen += 1
                if self.requests_seen <= self.shed_first:
                    resp = {"v": PROTOCOL_VERSION, "id": req["id"], "status": "shed",
                            "error": {"type": "Overload", "message": "queue full"}}
                else:
                    resp = {"v": PROTOCOL_VERSION, "id": req["id"], "status": "ok",
                            "result": {"status": "ok", "machines": 0}}
                fh.write(json.dumps(resp).encode() + b"\n")
                fh.flush()

    def close(self):
        self._sock.close()


class TestBackpressureRetry:
    def test_sync_retry_survives_transient_shed(self):
        srv = _SheddingServer(shed_first=2)
        try:
            with ServeClient(port=srv.port, retries=3, retry_backoff_s=0.001) as c:
                resp = c.request("health")
            assert resp.status == "ok"
            assert srv.requests_seen == 3
        finally:
            srv.close()

    def test_sync_no_retries_fails_fast(self):
        srv = _SheddingServer(shed_first=1)
        try:
            with ServeClient(port=srv.port) as c:
                resp = c.request("health")
            assert resp.status == "shed"
            assert srv.requests_seen == 1
        finally:
            srv.close()

    def test_sync_retries_exhausted_returns_last_response(self):
        srv = _SheddingServer(shed_first=10)
        try:
            with ServeClient(port=srv.port, retries=2, retry_backoff_s=0.001) as c:
                resp = c.request("health")
            assert resp.status == "shed"
            assert srv.requests_seen == 3  # initial + 2 retries
        finally:
            srv.close()

    def test_negative_retries_rejected(self):
        # Validation fires before any connection attempt.
        with pytest.raises(ValueError):
            ServeClient(port=1, retries=-1)

    def test_async_retry_survives_transient_shed(self):
        srv = _SheddingServer(shed_first=2)

        async def go():
            client = await AsyncServeClient.connect(
                port=srv.port, retries=3, retry_backoff_s=0.001
            )
            async with client:
                return await client.request("health")

        try:
            resp = asyncio.run(go())
            assert resp.status == "ok"
            assert srv.requests_seen == 3
        finally:
            srv.close()

    def test_real_server_extend_with_retries(self, server):
        # retries are a no-op against a healthy server.
        base = idle_trace("m0")
        with ServeClient(port=server.port, retries=2) as client:
            result = client.extend(tail_chunk(base))
        assert result["appended"] == 40
