"""End-to-end tests: real TCP server, sync and async clients."""

import asyncio
import json
import socket
import threading

import numpy as np
import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.windows import SECONDS_PER_DAY, ClockWindow, DayType
from repro.serve.client import AsyncServeClient, ServeClient, ServeRequestError
from repro.serve.dispatch import DispatchConfig
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.server import ServeServer
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace


def idle_trace(mid, fail_hour=None, n_days=14, period=60.0):
    n_per_day = int(SECONDS_PER_DAY / period)
    load = np.full(n_days * n_per_day, 0.05)
    if fail_hour is not None:
        i0 = int(fail_hour * 3600 / period)
        for day in range(n_days):
            load[day * n_per_day + i0 : day * n_per_day + i0 + 15] = 0.95
    return MachineTrace(mid, 0.0, period, load, np.full(load.shape, 400.0))


class ServerThread:
    """A ServeServer on a dedicated event-loop thread."""

    def __init__(self, service, config=None):
        self.loop = asyncio.new_event_loop()
        self.server = ServeServer(service, port=0, config=config)
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(10)

    @property
    def port(self):
        return self.server.port

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(30)

    def stop(self):
        self.run(self.server.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture(scope="module")
def service():
    svc = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
    svc.register(idle_trace("safe"))
    svc.register(idle_trace("risky", fail_hour=9.0))
    return svc


@pytest.fixture(scope="module")
def server(service):
    srv = ServerThread(service, DispatchConfig(max_workers=2, queue_depth=32))
    yield srv
    srv.stop()


class TestSyncClient:
    def test_health(self, server):
        with ServeClient(port=server.port) as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["machines"] == 2

    def test_predict_matches_direct_service(self, server, service):
        with ServeClient(port=server.port) as client:
            tr = client.predict("risky", 8, 3)
        direct = service.predict("risky", ClockWindow.from_hours(8, 3), DayType.WEEKDAY)
        assert tr == pytest.approx(direct, abs=1e-12)

    def test_rank_select_horizon(self, server):
        with ServeClient(port=server.port) as client:
            ranking = client.rank(8, 3)
            assert [r["machine"] for r in ranking] == ["safe", "risky"]
            select = client.select(8, 3, k=2)
            assert select["machines"][0] == "safe"
            horizon = client.horizon("safe", 8, 5)
            assert horizon == pytest.approx(5 * 3600.0)

    def test_many_requests_one_connection(self, server):
        with ServeClient(port=server.port) as client:
            values = [client.predict("safe", 8 + i % 3, 2) for i in range(12)]
        assert all(v == pytest.approx(1.0) for v in values)

    def test_unknown_machine_raises(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeRequestError, match="KeyError"):
                client.predict("ghost", 8, 3)
            # the connection survives the error response
            assert client.health()["status"] == "ok"

    def test_register_over_the_wire(self, server):
        with ServeClient(port=server.port) as client:
            out = client.register(idle_trace("wired"))
            assert out == {"machine": "wired", "n_samples": 14 * 1440, "replaced": False}
            assert client.predict("wired", 9, 1) == pytest.approx(1.0)

    def test_concurrent_connections(self, server):
        results = []
        lock = threading.Lock()

        def worker():
            with ServeClient(port=server.port) as client:
                tr = client.predict("safe", 8, 2)
            with lock:
                results.append(tr)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(tr == pytest.approx(1.0) for tr in results)


class TestRawWire:
    def test_malformed_line_gets_error_response_and_connection_survives(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["status"] == "error"
            assert resp["error"]["type"] == "ProtocolError"
            f.write(b'{"v": %d, "id": "h1", "op": "health"}\n' % PROTOCOL_VERSION)
            f.flush()
            resp = json.loads(f.readline())
            assert resp["status"] == "ok" and resp["id"] == "h1"

    def test_pipelined_requests_all_answered(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            f = sock.makefile("rwb")
            for i in range(5):
                f.write(
                    json.dumps({"v": PROTOCOL_VERSION, "id": f"p{i}", "op": "health"}).encode()
                    + b"\n"
                )
            f.flush()
            ids = {json.loads(f.readline())["id"] for _ in range(5)}
            assert ids == {f"p{i}" for i in range(5)}

    def test_blank_lines_ignored(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            f = sock.makefile("rwb")
            f.write(b"\n\n")
            f.write(b'{"v": %d, "id": "x", "op": "health"}\n' % PROTOCOL_VERSION)
            f.flush()
            assert json.loads(f.readline())["id"] == "x"


class TestAsyncClient:
    def test_roundtrip(self, server):
        async def go():
            client = await AsyncServeClient.connect(port=server.port)
            try:
                health = await client.health()
                tr = await client.predict("safe", 8, 2)
                ranking = await client.rank(8, 2)
                return health, tr, ranking
            finally:
                await client.close()

        health, tr, ranking = asyncio.run(go())
        assert health["status"] == "ok"
        assert tr == pytest.approx(1.0)
        assert len(ranking) >= 2


class TestQueryCli:
    def test_health_and_predict_roundtrip(self, server, capsys):
        from repro.cli import main

        assert main(["query", "health", "--port", str(server.port)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "ok" and out["result"]["machines"] >= 2

        assert (
            main([
                "query", "predict", "--port", str(server.port),
                "--machine", "safe", "--start-hour", "8", "--hours", "2",
            ])
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["tr"] == pytest.approx(1.0)

    def test_predict_requires_machine(self, server, capsys):
        from repro.cli import main

        assert main(["query", "predict", "--port", str(server.port)]) == 2
        assert "--machine" in capsys.readouterr().err

    def test_error_response_exits_nonzero(self, server, capsys):
        from repro.cli import main

        rc = main([
            "query", "predict", "--port", str(server.port),
            "--machine", "ghost", "--start-hour", "8", "--hours", "2",
        ])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "error"


class TestShutdown:
    def test_graceful_stop_drains_and_refuses_new_connections(self):
        svc = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
        svc.register(idle_trace("only"))
        srv = ServerThread(svc, DispatchConfig(max_workers=1, queue_depth=8))
        port = srv.port
        with ServeClient(port=port) as client:
            assert client.health()["status"] == "ok"
        srv.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)


class _FlakyListener:
    """A server that kills its first N connections mid-request.

    Connection ``i < drops``: accept, read one line, close without
    replying (the client sees EOF => ConnectionError).  Later
    connections answer every request with a canned ok response.
    """

    def __init__(self, drops: int):
        self.drops = drops
        self.connections = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            drop = self.connections <= self.drops
            with conn:
                f = conn.makefile("rwb")
                try:
                    while True:
                        line = f.readline()
                        if not line:
                            break
                        if drop:
                            break  # close mid-request
                        req = json.loads(line)
                        f.write(json.dumps({
                            "v": PROTOCOL_VERSION, "id": req["id"], "status": "ok",
                            "result": {"echo": req["op"]},
                        }).encode() + b"\n")
                        f.flush()
                finally:
                    # makefile keeps the fd alive past conn.close(); send
                    # the FIN explicitly so the client sees EOF.
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    f.close()

    def close(self) -> None:
        self._sock.close()


class TestConnectionErrorRetry:
    def test_sync_client_reconnects_and_resends(self):
        listener = _FlakyListener(drops=1)
        try:
            with ServeClient(
                port=listener.port, retries=2, retry_backoff_s=0.01
            ) as client:
                resp = client.request("health")
            assert resp.ok and resp.result == {"echo": "health"}
            assert listener.connections == 2  # dropped once, then re-sent
        finally:
            listener.close()

    def test_sync_client_without_retries_raises(self):
        listener = _FlakyListener(drops=1)
        try:
            with ServeClient(port=listener.port) as client:
                with pytest.raises(ConnectionError):
                    client.request("health")
        finally:
            listener.close()

    def test_sync_client_exhausted_retries_raise(self):
        listener = _FlakyListener(drops=10)
        try:
            with ServeClient(
                port=listener.port, retries=2, retry_backoff_s=0.01
            ) as client:
                with pytest.raises(ConnectionError):
                    client.request("health")
            assert listener.connections == 3  # initial + 2 retries
        finally:
            listener.close()

    def test_async_client_reconnects_and_resends(self):
        listener = _FlakyListener(drops=1)

        async def scenario():
            client = await AsyncServeClient.connect(
                port=listener.port, retries=2, retry_backoff_s=0.01
            )
            try:
                return await client.request("health")
            finally:
                await client.close()

        try:
            resp = asyncio.run(scenario())
            assert resp.ok and resp.result == {"echo": "health"}
            assert listener.connections == 2
        finally:
            listener.close()


class TestQueryTargetCli:
    def test_port_file(self, server, tmp_path, capsys):
        from repro.cli import main

        port_file = tmp_path / "serve.port"
        port_file.write_text(f"{server.port}\n")
        assert main(["query", "health", "--port-file", str(port_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "ok"

    def test_cluster_spec(self, server, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "cluster.json"
        spec.write_text(json.dumps(
            {"router": {"host": "127.0.0.1", "port": server.port}}
        ))
        assert main(["query", "health", "--cluster", str(spec)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "ok"

    def test_exactly_one_target_required(self, server, tmp_path, capsys):
        from repro.cli import main

        assert main(["query", "health"]) == 2
        assert "exactly one" in capsys.readouterr().err
        port_file = tmp_path / "serve.port"
        port_file.write_text(f"{server.port}\n")
        rc = main([
            "query", "health",
            "--port", str(server.port), "--port-file", str(port_file),
        ])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err
