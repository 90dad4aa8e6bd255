"""Router behaviour: quorum writes, sharded reads, merge, failover.

Everything here runs against real sockets but in-process backends (see
``conftest.py``), so each test can cross-check the router's answers
against the backends' ``AvailabilityService`` state directly.
"""

import pytest

from repro.core.windows import ClockWindow, DayType
from repro.obs.metrics import scoped_registry
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.protocol import PROTOCOL_VERSION

from .conftest import flat_trace

MACHINES = [f"m{i:02d}" for i in range(6)]


def register_all(harness, machines=MACHINES):
    traces = {mid: flat_trace(mid, load=0.02 + 0.01 * i)
              for i, mid in enumerate(machines)}
    with ServeClient(port=harness.port) as client:
        for trace in traces.values():
            result = client.register(trace)
            assert result["quorum"]["acks"] == 2
    return traces


class TestQuorumWrites:
    def test_register_acked_by_full_replica_set(self, harness):
        register_all(harness)
        with ServeClient(port=harness.port) as client:
            result = client.register(flat_trace("extra"))
        q = result["quorum"]
        assert q == {"acks": 2, "replicas": 2, "required": 2, "degraded": False}

    def test_placement_matches_the_ring_exactly(self, harness):
        register_all(harness)
        for mid in MACHINES:
            owners = set(harness.owners(mid))
            for node_id in harness.backends:
                assert (mid in harness.service(node_id)) == (node_id in owners)

    def test_every_machine_stored_on_exactly_r_nodes(self, harness):
        register_all(harness)
        total = sum(len(harness.service(n)) for n in harness.backends)
        assert total == 2 * len(MACHINES)

    def test_extend_reaches_both_replicas(self, harness):
        trace = flat_trace("grow")
        head, tail = trace.split_by_ratio(0.5)
        with ServeClient(port=harness.port) as client:
            client.register(head)
            result = client.extend(tail)
        assert result["quorum"]["acks"] == 2
        assert result["n_samples"] == trace.n_samples
        for node_id in harness.owners("grow"):
            assert (
                harness.service(node_id)._histories["grow"].n_samples
                == trace.n_samples
            )

    def test_write_without_quorum_is_refused(self, harness):
        register_all(harness)
        victim = harness.owners("quorum-probe")[0]
        harness.backends[victim].stop()
        with ServeClient(port=harness.port) as client:
            with pytest.raises(ServeRequestError, match="QuorumNotMet"):
                client.register(flat_trace("quorum-probe"))


class TestSingleMachineReads:
    def test_predict_matches_owning_backend(self, harness):
        register_all(harness)
        window, dtype = ClockWindow.from_hours(9, 2), DayType.WEEKDAY
        with ServeClient(port=harness.port) as client:
            for mid in MACHINES:
                via_router = client.predict(mid, 9, 2)
                direct = harness.service(harness.owners(mid)[0]).predict(
                    mid, window, dtype
                )
                assert via_router == pytest.approx(direct, abs=1e-12)

    def test_unknown_machine_error_propagates(self, harness):
        register_all(harness)
        with ServeClient(port=harness.port) as client:
            with pytest.raises(ServeRequestError, match="KeyError"):
                client.predict("ghost", 9, 2)

    def test_horizon_routed(self, harness):
        register_all(harness)
        with ServeClient(port=harness.port) as client:
            assert client.horizon(MACHINES[0], 8, 5) == pytest.approx(5 * 3600.0)


class TestScatterGather:
    def test_rank_merges_all_shards_without_duplicates(self, harness):
        traces = register_all(harness)
        with ServeClient(port=harness.port) as client:
            ranking = client.rank(9, 2)
        assert [r["machine"] for r in ranking] == sorted(
            traces, key=lambda m: (-dict((r["machine"], r["tr"]) for r in ranking)[m], m)
        )
        assert sorted(r["machine"] for r in ranking) == MACHINES

    def test_select_equals_single_node_math(self, harness):
        register_all(harness)
        with ServeClient(port=harness.port) as client:
            ranking = client.rank(9, 2)
            select = client.select(9, 2, k=3)
        best = [r["machine"] for r in ranking[:3]]
        assert select["machines"] == best
        expected = 1.0
        for r in ranking[:3]:
            expected *= r["tr"]
        assert select["survival"] == pytest.approx(expected, abs=1e-12)

    def test_select_too_large_k_is_an_error(self, harness):
        register_all(harness)
        with ServeClient(port=harness.port) as client:
            with pytest.raises(ServeRequestError, match="ValueError"):
                client.select(9, 2, k=100)

    def test_rank_survives_one_dead_node(self, harness):
        register_all(harness)
        harness.backends["node-1"].stop()
        with ServeClient(port=harness.port) as client:
            ranking = client.rank(9, 2)
        # R=2: every machine has a live replica, so nothing is missing.
        assert sorted(r["machine"] for r in ranking) == MACHINES


class TestFailover:
    def test_reads_fail_over_transparently(self, harness):
        register_all(harness)
        with scoped_registry() as reg:
            victim = harness.owners(MACHINES[0])[0]
            harness.backends[victim].stop()
            with ServeClient(port=harness.port) as client:
                for mid in MACHINES:
                    assert 0.0 <= client.predict(mid, 9, 2) <= 1.0
            failovers = reg.get("cluster_failovers_total")
            assert failovers is not None and failovers.value > 0

    def test_membership_marks_dead_node_down(self, harness):
        import time

        register_all(harness)
        harness.backends["node-2"].stop()
        with ServeClient(port=harness.port) as client:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                health = client.health()
                if health["nodes"]["node-2"]["state"] == "down":
                    break
                time.sleep(0.1)
            health = client.health()
        assert health["nodes"]["node-2"]["state"] == "down"
        assert health["status"] == "degraded"
        assert health["up_nodes"] == 2


class TestRouterHealth:
    def test_health_reports_ring_and_nodes(self, harness):
        with ServeClient(port=harness.port) as client:
            health = client.health()
        assert health["role"] == "router"
        assert health["status"] == "ok"
        assert health["ring"] == {
            "nodes": 3, "replicas": 2, "vnodes": 64, "write_quorum": 2,
        }
        assert set(health["nodes"]) == set(harness.backends)

    def test_malformed_line_answered_not_dropped(self, harness):
        import json
        import socket

        with socket.create_connection(("127.0.0.1", harness.port)) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["status"] == "error"
            # connection survives; a real request still works
            f.write(json.dumps(
                {"v": PROTOCOL_VERSION, "id": "x", "op": "health"}
            ).encode() + b"\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["status"] == "ok"
            assert resp["id"] == "x"
