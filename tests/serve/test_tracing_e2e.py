"""End-to-end tracing through a real ServeServer, and untraced wire compat."""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.windows import SECONDS_PER_DAY
from repro.obs.tracing import TraceContext, scoped_recorder, use_context
from repro.obs.traceview import build_traces, critical_path
from repro.serve.client import ServeClient
from repro.serve.dispatch import DispatchConfig
from repro.serve.protocol import PROTOCOL_VERSION, Request
from repro.serve.server import ServeServer
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace


def idle_trace(mid, n_days=10, period=60.0):
    n = int(n_days * SECONDS_PER_DAY / period)
    return MachineTrace(
        mid, 0.0, period, np.full(n, 0.05), np.full(n, 400.0)
    )


class ServerThread:
    def __init__(self, service, config=None):
        self.loop = asyncio.new_event_loop()
        self.server = ServeServer(service, port=0, config=config)
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
    svc = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=10))
    svc.register(idle_trace("m0"))
    srv = ServerThread(svc, DispatchConfig(max_workers=2, queue_depth=32))
    yield srv
    srv.stop()


class TestTracedRequest:
    def test_single_trace_covers_client_serve_predict_tiers(self, server):
        root = TraceContext.new_root()
        with scoped_recorder() as rec:
            with use_context(root), ServeClient(port=server.port) as client:
                client.predict("m0", 9.0, 2.0)
            trees = build_traces(rec.spans())
        assert list(trees) == [root.trace_id]
        tree = trees[root.trace_id]
        names = tree.names()
        # the full in-process journey: client -> dispatcher -> predictor
        assert "client.request" in names
        assert "dispatch.queue_wait" in names
        assert "dispatch.compute" in names
        assert "predict.query" in names
        assert {"client", "serve", "predict"} <= tree.tiers()
        # queue-wait and compute are siblings under the client span's child
        by_name = {s.name: s for s in tree.spans}
        assert (by_name["dispatch.queue_wait"].parent_id
                == by_name["dispatch.compute"].parent_id)
        # the critical path reaches the predict tier
        assert any(s.tier == "predict" for s in critical_path(tree))

    def test_predict_span_annotated_with_cache_counts(self, server):
        with scoped_recorder() as rec:
            with use_context(TraceContext.new_root()), \
                    ServeClient(port=server.port) as client:
                client.predict("m0", 9.0, 2.0)
            spans = {s.name: s for s in rec.spans()}
        attrs = spans["predict.query"].attrs
        assert "cache_hits" in attrs and "cache_misses" in attrs

    def test_untraced_request_records_no_spans(self, server):
        with scoped_recorder() as rec:
            with ServeClient(port=server.port) as client:
                client.predict("m0", 9.0, 2.0)
            assert len(rec) == 0

    def test_two_traced_requests_stay_separate(self, server):
        with scoped_recorder() as rec:
            with ServeClient(port=server.port) as client:
                for _ in range(2):
                    with use_context(TraceContext.new_root()):
                        client.predict("m0", 9.0, 2.0)
            trees = build_traces(rec.spans())
        assert len(trees) == 2


class TestWireCompat:
    def test_untraced_request_has_no_trace_key(self):
        wire = json.loads(Request(op="health").encode().decode())
        assert "trace" not in wire

    def test_untraced_request_round_trips_unchanged(self):
        # an untraced peer's request: no trace field
        wire = {"v": PROTOCOL_VERSION, "id": "r1", "op": "predict",
                "params": {"machine": "m0", "start_hour": 9, "hours": 2}}
        req = Request.decode(json.dumps(wire).encode())
        assert req.trace is None
        assert json.loads(req.encode().decode()) == wire

    def test_trace_field_round_trips(self):
        ctx = TraceContext.new_root()
        req = Request(op="predict", params={"machine": "m0"}, trace=ctx.to_wire())
        again = Request.decode(req.encode())
        assert again.trace == ctx.to_wire()
        assert TraceContext.from_wire(again.trace) == ctx

    def test_server_answers_untraced_clients_without_trace(self, server):
        # hand-rolled untraced request straight over a socket: the reply
        # must be a normal response with no trace-related additions
        import socket as socket_mod

        with socket_mod.create_connection(("127.0.0.1", server.port), 5) as sock:
            sock.sendall(json.dumps(
                {"v": PROTOCOL_VERSION, "op": "health", "id": "x1", "params": {}}
            ).encode() + b"\n")
            fh = sock.makefile("rb")
            reply = json.loads(fh.readline().decode())
        assert reply["status"] == "ok"
        assert "trace" not in reply

    def test_server_answers_v3_clients_without_trace(self, server):
        # a pre-tracing peer is refused with a plain structured error:
        # its id echoed, no trace-related additions
        import socket as socket_mod

        with socket_mod.create_connection(("127.0.0.1", server.port), 5) as sock:
            sock.sendall(json.dumps(
                {"v": 3, "op": "health", "id": "x1", "params": {}}
            ).encode() + b"\n")
            fh = sock.makefile("rb")
            reply = json.loads(fh.readline().decode())
        assert reply["status"] == "error" and reply["id"] == "x1"
        assert reply["error"]["type"] == "ProtocolError"
        assert set(reply) == {"v", "id", "status", "error"}

    def test_trace_envelope_version_supported(self):
        # the trace envelope arrived in v4; later bumps must keep it
        assert PROTOCOL_VERSION >= 4
