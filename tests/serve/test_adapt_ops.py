"""The adapt ops over the wire, and the adapt-off byte-identity.

Covers the ``AdaptDisabled`` refusal on nodes serving without ``--adapt``, and the
cache-coherence contract of a promotion: after ``adapt_promote``, both
single ``predict`` answers and batched ``fleet_scan`` rows served over
the wire must come from the promoted hyperparameters — the per-machine
incremental cache and the fleet kernel rows may not serve stale values.
"""

import asyncio
import json
import socket
import threading

import numpy as np
import pytest

from repro.adapt import AdaptConfig, AdaptController
from repro.adapt.planner import CandidateConfig
from repro.audit import AuditConfig, PredictionAudit
from repro.core.online import IncrementalPredictor
from repro.core.windows import SECONDS_PER_DAY, ClockWindow, DayType
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.dispatch import DispatchConfig
from repro.serve.server import ServeServer
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace

from tests.serve.test_server import ServerThread, idle_trace

PERIOD = 300.0


def shifted_trace(mid="lab-0", n_days=14, shift_day=8):
    """A daily 9am outage that stops at ``shift_day``: a full-history
    model and a short-window model genuinely disagree about 8.5am."""
    n_per_day = int(SECONDS_PER_DAY / PERIOD)
    load = np.full(n_days * n_per_day, 0.05)
    i0 = int(9.0 * 3600 / PERIOD)
    for day in range(0, shift_day):
        load[day * n_per_day + i0 : day * n_per_day + i0 + 24] = 0.95
    return MachineTrace(mid, 0.0, PERIOD, load, np.full(load.shape, 400.0))


class AdaptServerThread(ServerThread):
    """A ServeServer with audit + adapt on its own event-loop thread."""

    def __init__(self, service, audit, adapt, config=None):
        self.loop = asyncio.new_event_loop()
        self.server = ServeServer(
            service, port=0, config=config, audit=audit, adapt=adapt,
        )
        self.audit = audit
        self.adapt = adapt
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(10)


def adapt_server(trace=None):
    service = AvailabilityService()
    service.register(trace if trace is not None else idle_trace("lab-0"))
    audit = PredictionAudit(
        AuditConfig(node_id="n0"),
        classifier=service.classifier,
        step_multiple=service.config.step_multiple,
    )
    adapt = AdaptController(service, audit, AdaptConfig(min_eval=2))
    return AdaptServerThread(
        service, audit, adapt, DispatchConfig(max_workers=2, queue_depth=32)
    )


def raw_request(port, payload):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        line = sock.makefile("rb").readline()
    return json.loads(line)


class TestVersionGating:
    def test_v7_request_may_not_name_an_adapt_op(self):
        srv = adapt_server()
        try:
            resp = raw_request(srv.port, {
                "v": 7, "op": "adapt_status", "id": "x", "params": {},
            })
        finally:
            srv.stop()
        assert resp["status"] == "error"
        assert resp["error"]["type"] == "ProtocolError"
        assert "upgrade the client" in resp["error"]["message"]
        assert resp["id"] == "x"

    def test_v8_request_reaches_the_handler(self):
        srv = adapt_server()
        try:
            resp = raw_request(srv.port, {
                "v": 8, "op": "adapt_status", "id": "x", "params": {},
            })
        finally:
            srv.stop()
        assert resp["status"] == "ok"
        assert resp["result"]["enabled"] is True


class TestAdaptDisabled:
    """A node serving without --adapt: non-adapt answers are untouched."""

    @pytest.fixture()
    def plain_server(self):
        service = AvailabilityService()
        service.register(idle_trace("lab-0"))
        srv = ServerThread(service, DispatchConfig(max_workers=1, queue_depth=8))
        yield srv
        srv.stop()

    def test_health_has_no_adapt_key(self, plain_server):
        with ServeClient(port=plain_server.port) as client:
            health = client.health()
        assert "adapt" not in health

    def test_predict_result_has_no_source_key(self, plain_server):
        with ServeClient(port=plain_server.port) as client:
            resp = client.request("predict", {
                "machine": "lab-0", "start_hour": 1.0, "hours": 2.0,
                "day_type": "weekday",
            })
        assert resp.status == "ok"
        assert set(resp.result) == {"machine", "tr"}

    def test_adapt_status_reports_disabled(self, plain_server):
        with ServeClient(port=plain_server.port) as client:
            assert client.adapt_status() == {"enabled": False}

    def test_adapt_writes_are_refused_with_a_hint(self, plain_server):
        with ServeClient(port=plain_server.port) as client:
            with pytest.raises(ServeRequestError, match="without --adapt"):
                client.adapt_retune("lab-0")
            with pytest.raises(ServeRequestError, match="without --adapt"):
                client.adapt_promote("lab-0", force=True)


class TestAdaptOps:
    def test_health_and_status_report_the_tier(self):
        srv = adapt_server()
        try:
            with ServeClient(port=srv.port) as client:
                health = client.health()
                status = client.adapt_status()
                scoped = client.adapt_status(machine="lab-0")
        finally:
            srv.stop()
        assert health["adapt"] is True
        assert status["enabled"] is True
        assert status["machines"] == {}
        assert scoped["machines"]["lab-0"] == {
            "state": "stable", "override": False,
        }

    def test_writes_require_a_registered_machine(self):
        srv = adapt_server()
        try:
            with ServeClient(port=srv.port) as client:
                with pytest.raises(ServeRequestError, match="not registered"):
                    client.adapt_retune("ghost")
                with pytest.raises(ServeRequestError, match="not registered"):
                    client.adapt_promote("ghost")
        finally:
            srv.stop()

    def test_retune_over_the_wire_returns_the_plan(self):
        srv = adapt_server(shifted_trace())
        try:
            with ServeClient(port=srv.port) as client:
                summary = client.adapt_retune("lab-0", trigger="operator")
        finally:
            srv.stop()
        assert summary["machine"] == "lab-0"
        assert summary["trigger"] == "operator"
        assert summary["champion"] is not None
        assert isinstance(summary["trial_opened"], bool)

    def test_promote_without_a_trial_is_refused(self):
        srv = adapt_server()
        try:
            with ServeClient(port=srv.port) as client:
                out = client.adapt_promote("lab-0")
        finally:
            srv.stop()
        assert out["promoted"] is False
        assert out["reason"] == "no trial in flight"


class TestPromotionCacheCoherence:
    """After adapt_promote, every serving path answers from the new model."""

    WINDOW = (8.5, 2.0)  # straddles the 9am outage the old regime had

    def test_scan_and_predict_reflect_promoted_hyperparameters(self):
        srv = adapt_server(shifted_trace())
        challenger = CandidateConfig(history_days=3)
        try:
            with ServeClient(port=srv.port) as client:
                before_tr = client.predict("lab-0", *self.WINDOW)
                before_scan = client.fleet_scan(*self.WINDOW)

                # Open a shadow trial directly (the backtest gate is
                # exercised elsewhere) and promote it over the wire.
                from tests.adapt.test_controller import open_trial

                open_trial(srv.adapt, "lab-0", challenger)
                out = client.adapt_promote("lab-0", force=True)
                assert out["promoted"] is True
                assert out["challenger"]["history_days"] == 3

                after_tr = client.predict("lab-0", *self.WINDOW)
                after_scan = client.fleet_scan(*self.WINDOW)
                status = client.adapt_status()

            service = srv.server.dispatcher.service
            expected = IncrementalPredictor(
                challenger.classifier(service.classifier),
                challenger.estimator_config(service.config),
            ).predict(
                service._history("lab-0"),
                ClockWindow.from_hours(*self.WINDOW),
                DayType.WEEKDAY,
            )
        finally:
            srv.stop()

        # The old model predicts the (gone) 9am outage; the promoted
        # 3-day window knows the machine recovered.
        assert after_tr > before_tr
        assert after_tr == pytest.approx(expected, abs=1e-12)
        # The fleet kernel row was invalidated too, not served stale.
        assert before_scan["machines"][0]["tr"] == pytest.approx(
            before_tr, abs=1e-9
        )
        assert after_scan["machines"][0]["tr"] == pytest.approx(
            after_tr, abs=1e-9
        )
        assert status["overrides"] == ["lab-0"]
