"""Wire-format tests for the serving protocol."""

import json

import pytest

from repro.serve.protocol import (
    OPS,
    PROTOCOL_VERSION,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    ProtocolError,
    Request,
    Response,
)


class TestRequest:
    def test_roundtrip(self):
        req = Request(
            op="predict",
            params={"machine": "lab-00", "start_hour": 9, "hours": 2},
            id="q1",
            deadline_ms=250.0,
        )
        back = Request.decode(req.encode())
        assert back == req

    def test_encode_is_one_json_line(self):
        raw = Request(op="health", id="h").encode()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        obj = json.loads(raw)
        assert obj["v"] == PROTOCOL_VERSION
        assert obj["op"] == "health"

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            Request(op="destroy")

    def test_versioned_op_set(self):
        # the one version speaks the full op set; no op needs another v
        v1 = {"predict", "rank", "select", "horizon", "register", "health"}
        sched_ops = {"submit", "job_status", "cancel", "jobs", "replace", "job_put"}
        fleet_ops = {"predict_batch", "fleet_scan"}
        adapt_ops = {"adapt_status", "adapt_retune", "adapt_promote"}
        assert set(OPS) == (
            v1 | {"extend", "quality", "tail"} | sched_ops | fleet_ops | adapt_ops
        )
        for op in OPS:
            wire = {"v": PROTOCOL_VERSION, "op": op}
            assert Request.from_wire(wire).op == op
            with pytest.raises(ProtocolError, match="upgrade the client"):
                Request.from_wire({**wire, "v": PROTOCOL_VERSION - 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            Request.decode(b'{"v": 99, "op": "health"}')

    @pytest.mark.parametrize("version", ["8", None, True, 8.0])
    def test_non_integer_version_rejected(self, version):
        with pytest.raises(ProtocolError, match="upgrade the client"):
            Request.from_wire({"v": version, "op": "health"})

    def test_refusal_carries_the_request_id(self):
        with pytest.raises(ProtocolError) as err:
            Request.decode(b'{"v": 1, "id": "q9", "op": "health"}')
        assert err.value.request_id == "q9"

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError, match="missing 'op'"):
            Request.decode(b'{"v": 8}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            Request.decode(b"{nope")

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            Request.decode(b'{"op": "health", "id": "\xff"}')

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            Request.decode(b"[1, 2]")

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ProtocolError, match="deadline_ms"):
            Request(op="health", deadline_ms=0.0)

    def test_params_must_be_object(self):
        with pytest.raises(ProtocolError, match="params"):
            Request.decode(b'{"v": 8, "op": "health", "params": [1]}')


class TestResponse:
    def test_success_roundtrip(self):
        resp = Response.success("q7", {"tr": 0.93}, coalesced=True, elapsed_ms=1.25)
        back = Response.decode(resp.encode())
        assert back.ok and back.coalesced
        assert back.id == "q7"
        assert back.result == {"tr": 0.93}

    def test_failure_roundtrip(self):
        resp = Response.failure("q8", STATUS_SHED, "Overload", "queue full")
        back = Response.decode(resp.encode())
        assert not back.ok
        assert back.backpressure
        assert back.error["type"] == "Overload"

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError, match="status"):
            Response(id="x", status="confused")

    def test_backpressure_classification(self):
        assert not Response(id="", status=STATUS_OK).backpressure
        assert not Response(id="", status=STATUS_ERROR).backpressure
        assert not Response(id="", status=STATUS_DEADLINE).backpressure
        assert Response(id="", status=STATUS_SHED).backpressure
