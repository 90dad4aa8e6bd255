"""The ``tail`` op: reading the newest samples back over the wire.

``tail`` closes the ingestion loop — after an agent streams telemetry
in through ``extend``, an operator can look at what the server actually
holds without downloading the whole history.
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


def small_trace(mid="tailed", n=20, period=6.0, start=SECONDS_PER_DAY * 7.0):
    load = np.linspace(0.0, 0.95, n)
    mem = np.full(n, 256.0)
    up = np.ones(n, dtype=bool)
    up[5] = False
    return MachineTrace(mid, start, period, load, mem, up)


@pytest.fixture(scope="module")
def server():
    svc = AvailabilityService()
    svc.register(small_trace())
    srv = ServerThread(svc)
    yield srv
    srv.stop()


class TestTail:
    def test_last_n_samples_with_grid_times(self, server):
        trace = small_trace()
        with ServeClient(port=server.port) as client:
            tail = client.tail("tailed", n=3)
        assert tail["machine"] == "tailed"
        assert tail["n_samples"] == 20
        assert tail["sample_period"] == 6.0
        assert len(tail["samples"]) == 3
        for i, s in enumerate(tail["samples"], start=17):
            assert s["time"] == trace.start_time + 6.0 * i
            assert s["load"] == pytest.approx(trace.load[i])
            assert s["free_mem_mb"] == 256.0
            assert s["up"] is True

    def test_n_larger_than_history_returns_everything(self, server):
        with ServeClient(port=server.port) as client:
            tail = client.tail("tailed", n=1000)
        assert len(tail["samples"]) == 20
        assert tail["samples"][5]["up"] is False

    def test_n_zero_is_a_cheap_length_probe(self, server):
        with ServeClient(port=server.port) as client:
            tail = client.tail("tailed", n=0)
        assert tail["samples"] == []
        assert tail["n_samples"] == 20
        assert tail["end_time"] == tail["start_time"] + 6.0 * 20

    def test_unknown_machine_is_an_error(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeRequestError, match="not registered"):
                client.tail("ghost")

    def test_negative_n_rejected(self, server):
        with ServeClient(port=server.port) as client:
            with pytest.raises(ServeRequestError, match="n must be"):
                client.tail("tailed", n=-1)

    def test_pre_v6_request_cannot_use_tail(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            fh = sock.makefile("rwb")
            fh.write(json.dumps(
                {"v": 5, "id": "x", "op": "tail", "params": {"machine": "tailed"}}
            ).encode() + b"\n")
            fh.flush()
            resp = json.loads(fh.readline())
        assert resp["status"] == "error"
        assert "upgrade the client" in resp["error"]["message"]

    def test_tail_sees_extend_immediately(self, server):
        trace = small_trace()
        chunk = MachineTrace(
            "tailed", trace.start_time + 6.0 * 20, 6.0,
            np.array([0.5]), np.array([128.0]), np.array([True]),
        )
        with ServeClient(port=server.port) as client:
            client.extend(chunk)
            tail = client.tail("tailed", n=1)
        assert tail["n_samples"] == 21
        assert tail["samples"][0]["load"] == pytest.approx(0.5)
        assert tail["samples"][0]["free_mem_mb"] == 128.0
