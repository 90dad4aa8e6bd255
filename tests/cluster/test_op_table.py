"""One op table, one protocol version: a cluster answers like a node.

Every op of :data:`repro.serve.protocol.OPS` is sent to a single
``ServeServer`` and to the 3-node, R=2 cluster harness holding the same
histories, and the answers must match: results after dropping the
router-only ``shards``/``quorum`` keys, errors in status, type and
message.  Ops whose answer is per-node by design are excluded by name,
each with its reason; a table op that is neither covered nor excluded
fails the coverage test, so a new op cannot skip the check.

The wire speaks one version: any other ``v`` — or a non-integer one —
is refused with the upgrade message and the request's own id, by a node
and by the router alike, and the connection keeps serving.
"""

import json
import socket

import numpy as np
import pytest

from repro.cluster.router import _SCATTERS
from repro.core.windows import SECONDS_PER_DAY
from repro.serve.client import ServeClient, ServeRequestError, _trace_params
from repro.serve.protocol import OPS, PROTOCOL_VERSION
from repro.traces.trace import MachineTrace

from .conftest import BackendThread, ClusterHarness

PERIOD = 300.0
MACHINES = [f"m{i:02d}" for i in range(6)]
WINDOW = {"start_hour": 8, "hours": 3, "day_type": "weekday"}


def lab_trace(i: int, mid: str, n_days: int = 10) -> MachineTrace:
    """Morning outages at a machine-specific hour on two days in three,
    so every machine has its own TR and the fleet ranks cleanly."""
    n_per_day = int(SECONDS_PER_DAY / PERIOD)
    load = np.full(n_days * n_per_day, 0.05)
    i0 = int((7 + i) * 3600 / PERIOD)
    for day in range(n_days):
        if (day + i) % 3:
            load[day * n_per_day + i0 : day * n_per_day + i0 + 6 + i] = 0.95
    return MachineTrace(mid, 0.0, PERIOD, load, np.full(load.shape, 400.0))


def continuation(trace: MachineTrace, n: int = 40) -> MachineTrace:
    return MachineTrace(
        trace.machine_id, trace.end_time, trace.sample_period,
        trace.load[:n], trace.free_mem_mb[:n], trace.up[:n],
    )


#: (op, params, expected error type or None for ok).  Both deployments
#: run audit + adapt and no JobManager, so the scheduling ops check that
#: the router relays a node's refusal verbatim.
CASES = [
    pytest.param("predict", {"machine": "m01", **WINDOW}, None, id="predict"),
    pytest.param("predict", {"machine": "ghost", **WINDOW}, "KeyError",
                 id="predict-unknown-machine"),
    pytest.param("predict", WINDOW, "ProtocolError", id="predict-missing-machine"),
    pytest.param("horizon", {"machine": "m02", "tr_threshold": 0.5, **WINDOW}, None,
                 id="horizon"),
    pytest.param("tail", {"machine": "m03", "n": 4}, None, id="tail"),
    pytest.param("rank", WINDOW, None, id="rank"),
    pytest.param("select", {"k": 3, **WINDOW}, None, id="select"),
    pytest.param("select", {"k": 30, **WINDOW}, "ValueError",
                 id="select-k-beyond-fleet"),
    pytest.param("predict_batch", WINDOW, None, id="predict_batch"),
    pytest.param("predict_batch", {"machines": ["m00", "ghost"], **WINDOW},
                 "ProtocolError", id="predict_batch-unregistered"),
    pytest.param("predict_batch", {"machines": ["m01", "m01", "m02"], **WINDOW}, None,
                 id="predict_batch-repeated-id"),
    pytest.param("fleet_scan", {"horizons_hours": [1.0, 2.0], **WINDOW}, None,
                 id="fleet_scan"),
    pytest.param("fleet_scan", {"machines": ["m01", "m01", "m02"], **WINDOW}, None,
                 id="fleet_scan-repeated-id"),
    pytest.param("register", _trace_params(lab_trace(6, "fresh")), None,
                 id="register"),
    pytest.param("extend", _trace_params(continuation(lab_trace(4, "m04"))), None,
                 id="extend"),
    pytest.param("adapt_status", {}, None, id="adapt_status"),
    pytest.param("adapt_retune", {"machine": "m01"}, None, id="adapt_retune"),
    pytest.param("adapt_promote", {"machine": "m01", "force": True}, None,
                 id="adapt_promote"),
    pytest.param("submit", {"job": "j1", "total_cpu_seconds": 10.0},
                 "SchedulerDisabled", id="submit"),
    pytest.param("job_status", {"job": "j1"}, "SchedulerDisabled", id="job_status"),
    pytest.param("cancel", {"job": "j1"}, "SchedulerDisabled", id="cancel"),
    pytest.param("jobs", {}, "SchedulerDisabled", id="jobs"),
]

#: Ops whose answer differs between a node and a cluster by design.
EXCLUDED = {
    "health": "per-node by design: a node reports its queue and machines, "
              "the router its ring and membership",
    "quality": "names the journaling node(s); the cross-node bin merge is "
               "pinned by test_quality.py",
    "replace": "internal: the router's node-death broadcast "
               "(test_sched_cluster.py)",
    "job_put": "internal: the router's job-record replication after submit",
}

#: Result keys only the router adds.
ROUTER_ONLY = ("shards", "quorum")


def answer(resp):
    result = resp.result
    if isinstance(result, dict):
        result = {k: v for k, v in result.items() if k not in ROUTER_ONLY}
    return resp.status, resp.error, result


@pytest.fixture()
def deployments():
    single = BackendThread("single", audit=True, adapt=True)
    cluster = ClusterHarness(audit=True, adapt=True)
    try:
        with ServeClient(port=single.address[1]) as node, \
                ServeClient(port=cluster.port) as router:
            for i, mid in enumerate(MACHINES):
                node.register(lab_trace(i, mid))
                router.register(lab_trace(i, mid))
            yield node, router
    finally:
        cluster.stop()
        single.stop()


class TestClusterParity:
    @pytest.mark.parametrize("op, params, error", CASES)
    def test_cluster_answers_like_a_single_node(self, deployments, op, params, error):
        node, router = deployments
        expected = answer(node.request(op, params))
        assert answer(router.request(op, params)) == expected
        assert (expected[1] or {}).get("type") == error

    def test_every_table_op_is_covered_or_excluded(self):
        covered = {case.values[0] for case in CASES}
        assert not covered & EXCLUDED.keys()
        assert covered | EXCLUDED.keys() == set(OPS)

    def test_every_scatter_op_has_a_merge(self):
        scatter = {op for op, spec in OPS.items() if spec.route == "scatter"}
        assert set(_SCATTERS) == scatter


@pytest.fixture(params=["node", "router"])
def port(request, harness):
    if request.param == "router":
        return harness.port
    return harness.backends["node-0"].address[1]


def exchange(port, *requests):
    """Send raw wire objects one at a time on one connection."""
    replies = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        f = sock.makefile("rwb")
        for obj in requests:
            f.write(json.dumps(obj).encode() + b"\n")
            f.flush()
            replies.append(json.loads(f.readline()))
    return replies


class TestOneProtocolVersion:
    @pytest.mark.parametrize("version", [1, 7, 9, 99])
    def test_other_versions_get_the_upgrade_error(self, port, version):
        rid = f"old-{version}"
        (reply,) = exchange(port, {"v": version, "id": rid, "op": "health"})
        assert reply["status"] == "error"
        assert reply["error"]["type"] == "ProtocolError"
        assert "upgrade the client" in reply["error"]["message"]
        assert reply["id"] == rid

    @pytest.mark.parametrize("version", ["x", None, True, 8.0])
    def test_non_integer_version_is_refused_and_the_connection_serves_on(
        self, port, version
    ):
        refusal, health = exchange(
            port,
            {"v": version, "id": "bad", "op": "health"},
            {"v": PROTOCOL_VERSION, "id": "next", "op": "health"},
        )
        assert refusal["status"] == "error"
        assert refusal["error"]["type"] == "ProtocolError"
        assert refusal["id"] == "bad"
        assert health["status"] == "ok" and health["id"] == "next"

    def test_health_reports_the_protocol_version(self, port):
        with ServeClient(port=port) as client:
            assert client.health()["protocol_version"] == PROTOCOL_VERSION

    def test_routing_error_reaches_the_client_with_its_id(self, harness):
        with ServeClient(port=harness.port) as client:
            resp = client.request("predict", WINDOW)  # no machine
            with pytest.raises(ServeRequestError, match="missing required param"):
                client._result(resp)
