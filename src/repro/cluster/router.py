"""The cluster frontend: one socket, many sharded/replicated backends.

The router speaks the *same* JSON-lines wire protocol as a single
``repro serve`` process (:mod:`repro.serve.protocol`), so every
existing client — ``repro query``, :class:`~repro.serve.client.ServeClient`,
a scheduler with a socket — talks to a cluster by changing nothing but
the port.  Behind the socket each op is routed by the routing class its
entry in the op table (:data:`repro.serve.protocol.OPS`) declares:

* **owner** ops (``predict``, ``horizon``, ``tail``, ``job_status``) go
  to the key's primary owner on the hash ring; on a connection error or
  a backpressure answer (``shed`` / ``shutting_down``) the router fails
  over to the next replica transparently, so a SIGKILLed backend costs
  the client nothing but latency;
* **scatter** ops go to every live node and merge by the op's entry in
  :data:`_SCATTERS`: replicas report the same machine twice and the
  merge dedups, ``select`` is asked as ``rank`` and re-derived from the
  merged TR map so its answer is identical to a single-node deployment,
  and per-node state (audit bins, adapt counters, job copies) is summed
  or reconciled;
* **quorum** ops (``register``, ``extend`` and the other writes) fan out
  to *all* R owners of the key and succeed only with a write quorum of
  ⌈(R+1)/2⌉ acks — for the default R=2 that is both replicas, which is
  what lets a restarted node warm-start from its own store and still
  hold every byte it ever acknowledged;
* **submit** places the job at its owner, then replicates the record
  to every owner under the write quorum;
* **local** ``health`` is answered by the router itself with the
  cluster view (per-node up/down, ring shape) — it must work while
  backends are down, because it is how operators see that they are down.

The router holds no machine data: placement is pure hashing, health is
probed, and every byte of history lives in the backends' stores.  A
router restart therefore loses nothing and needs no recovery.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple

from repro.adapt.controller import merge_adapt_status
from repro.audit.scoreboard import merge_quality
from repro.cluster.membership import Membership
from repro.cluster.ring import HashRing
from repro.core.multi import group_survival, select_best_k
from repro.obs.events import get_event_log
from repro.obs.instruments import instrument
from repro.obs.tracing import TraceContext, current_context, start_span, use_context
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    ProtocolError,
    Request,
    Response,
)

__all__ = ["RouterConfig", "ClusterRouter"]

#: Quorum ops that write machine history: an acknowledged one puts the
#: machine in the placement pool the node-death hook reasons about.
#: (Retune/promote change a machine's model but create no history.)
_HISTORY_WRITES = frozenset({"register", "extend"})


# ---------------------------------------------------------------------- #
# scatter merges: ``(client params, ok results in node order) -> result``
# ---------------------------------------------------------------------- #


def _first_per_machine(results: list[Any], key: str) -> dict[str, Mapping[str, Any]]:
    """Entries under ``key`` by machine.  Replicas answer from
    byte-identical histories, so the first answer wins."""
    merged: dict[str, Mapping[str, Any]] = {}
    for result in results:
        for entry in result.get(key, ()):
            merged.setdefault(str(entry["machine"]), entry)
    return merged


def _merge_rank(params: Mapping[str, Any], results: list[Any]) -> dict[str, Any]:
    trs = {m: e["tr"] for m, e in _first_per_machine(results, "ranking").items()}
    order = sorted(trs.items(), key=lambda kv: (-kv[1], kv[0]))
    return {"ranking": [{"machine": m, "tr": tr} for m, tr in order]}


def _merge_select(params: Mapping[str, Any], results: list[Any]) -> dict[str, Any]:
    trs = {m: e["tr"] for m, e in _first_per_machine(results, "ranking").items()}
    k = int(params.get("k", 1))
    chosen = select_best_k(trs, k)
    return {
        "machines": chosen,
        "survival": group_survival([trs[m] for m in chosen]),
        "k": k,
    }


def _merge_fleet(key: str, order: Callable[[Mapping[str, Any]], Any]) -> Callable:
    """Merge for a fleet batch op whose per-machine entries sit under ``key``."""

    def merge(params: Mapping[str, Any], results: list[Any]) -> dict[str, Any]:
        merged = _first_per_machine(results, key)
        requested = params.get("machines")
        if requested is not None:
            missing = sorted({str(m) for m in requested} - merged.keys())
            if missing:
                raise ProtocolError(f"machines not registered: {', '.join(missing)}")
        entries = sorted(merged.values(), key=order)
        out: dict[str, Any] = {key: entries, "count": len(entries)}
        if "horizons_hours" in results[0]:
            out["horizons_hours"] = results[0]["horizons_hours"]
        return out

    return merge


def _merge_jobs(params: Mapping[str, Any], results: list[Any]) -> dict[str, Any]:
    """Dedup job records by id.  Replicas of a job may lag one transition
    apart (a refresh saw a completion on one owner first), so the copy
    with the highest ``(version, lifecycle stage)`` wins."""
    from repro.sched.jobs import STATE_RANK

    def newness(record: Mapping[str, Any]) -> tuple[int, int]:
        return record["version"], STATE_RANK.get(record["state"], 0)

    merged: dict[str, Mapping[str, Any]] = {}
    for result in results:
        for record in result.get("jobs", ()):
            current = merged.get(str(record["job"]))
            if current is None or newness(record) > newness(current):
                merged[str(record["job"])] = record
    records = [merged[j] for j in sorted(merged)]
    states = Counter(record["state"] for record in records)
    return {"jobs": records, "stats": {"jobs": len(records), "states": dict(states)}}


def _merge_replace(params: Mapping[str, Any], results: list[Any]) -> dict[str, Any]:
    actions: Counter[str] = Counter()
    for result in results:
        for action, count in (result.get("actions") or {}).items():
            actions[action] += int(count)
    return {
        "replaced": sum(int(result.get("replaced", 0)) for result in results),
        "actions": dict(actions),
        "restored": sorted({m for result in results for m in result.get("restored") or ()}),
        "nodes": len(results),
    }


class _Scatter(NamedTuple):
    """How one scatter op is forwarded to every node and merged."""

    #: Combines the ok answers; a ``ValueError`` it raises is the answer.
    merge: Callable[[Mapping[str, Any], list[Any]], dict[str, Any]]
    #: The op the nodes are asked, when it is not the op itself.
    ask: str | None = None
    #: Nodes answer for the machines they hold and skip the rest.
    missing_ok: bool = False
    #: Report node coverage as ``shards`` in the merged result.
    shards: bool = True


#: One entry per ``scatter`` op of the op table.
_SCATTERS: dict[str, _Scatter] = {
    "rank": _Scatter(_merge_rank),
    # Top-k runs over the *global* TR map: nodes answer rank and the
    # router re-derives select from the merged map.
    "select": _Scatter(_merge_select, ask="rank"),
    # Each node runs one batched solve over the machines it owns.
    "predict_batch": _Scatter(
        _merge_fleet("predictions", lambda e: str(e["machine"])), missing_ok=True
    ),
    "fleet_scan": _Scatter(
        _merge_fleet("machines", lambda e: (-float(e["tr"]), str(e["machine"]))),
        missing_ok=True,
    ),
    # Audit state is per node, never replicated: each owner journaled
    # only the predictions it served, so per-bin statistics are summed
    # and the pooled metrics re-derived.
    "quality": _Scatter(lambda params, results: merge_quality(results)),
    # Adapt state is per node too: counters add, machine entries union.
    "adapt_status": _Scatter(lambda params, results: merge_adapt_status(results)),
    "jobs": _Scatter(_merge_jobs),
    # Each JobManager re-places its own affected jobs; counts add up.
    "replace": _Scatter(_merge_replace, shards=False),
}


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs of one :class:`ClusterRouter`."""

    #: Replication factor R: copies of each machine's history.
    replicas: int = 2
    #: Virtual nodes per backend on the hash ring.
    vnodes: int = 64
    #: Seconds to establish one backend connection.
    connect_timeout_s: float = 2.0
    #: Seconds to wait for one backend response (None: unbounded).
    request_timeout_s: float | None = 30.0
    #: Idle pooled connections kept per backend.
    pool_idle_per_node: int = 8
    #: Health-probe period.
    probe_interval_s: float = 0.5
    #: Consecutive failures before mark-down / successes before mark-up.
    down_after: int = 2
    up_after: int = 2

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")

    @property
    def write_quorum(self) -> int:
        """Acks required for a write: ⌈(R+1)/2⌉ (majority of R+1)."""
        return (self.replicas + 2) // 2


class _BackendPool:
    """Pooled JSON-lines connections to the backends, one in use per call."""

    def __init__(self, membership: Membership, config: RouterConfig) -> None:
        self._membership = membership
        self._config = config
        self._idle: dict[str, list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]] = {}
        self._ids = itertools.count(1)

    async def call(self, node_id: str, request: Request) -> Response:
        """One request/response round-trip against ``node_id``.

        Raises ``ConnectionError``/``OSError``/``TimeoutError`` when the
        backend is unreachable or the connection breaks mid-request; the
        broken connection is discarded, never pooled.
        """
        conn = await self._acquire(node_id)
        reader, writer = conn
        # The ambient trace context (the router span this call runs
        # under) rides the forwarded request, so backend-side spans join
        # the same trace.
        ctx = current_context()
        forwarded = Request(
            op=request.op,
            params=request.params,
            id=f"r{next(self._ids)}",
            deadline_ms=request.deadline_ms,
            trace=None if ctx is None else ctx.to_wire(),
        )
        try:
            writer.write(forwarded.encode())
            await writer.drain()
            line = await self._bounded(reader.readline())
            if not line:
                raise ConnectionError(f"backend {node_id} closed the connection")
            resp = Response.decode(line)
            if resp.id != forwarded.id:
                raise ProtocolError(
                    f"backend {node_id} answered id {resp.id!r}, "
                    f"expected {forwarded.id!r}"
                )
        except BaseException:
            await _close_quietly(writer)
            raise
        self._release(node_id, conn)
        return resp

    async def _bounded(self, coro: Any) -> Any:
        if self._config.request_timeout_s is None:
            return await coro
        return await asyncio.wait_for(coro, self._config.request_timeout_s)

    async def _acquire(
        self, node_id: str
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        idle = self._idle.get(node_id)
        while idle:
            reader, writer = idle.pop()
            if not writer.is_closing():
                return reader, writer
            await _close_quietly(writer)
        host, port = self._membership.address(node_id)
        return await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=MAX_LINE_BYTES),
            self._config.connect_timeout_s,
        )

    def _release(
        self, node_id: str, conn: tuple[asyncio.StreamReader, asyncio.StreamWriter]
    ) -> None:
        idle = self._idle.setdefault(node_id, [])
        if len(idle) < self._config.pool_idle_per_node and not conn[1].is_closing():
            idle.append(conn)
        else:
            conn[1].close()

    async def close(self) -> None:
        for conns in self._idle.values():
            for _, writer in conns:
                await _close_quietly(writer)
        self._idle.clear()


async def _close_quietly(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (OSError, asyncio.CancelledError):
        pass


def _relay(resp: Response, request: Request) -> Response:
    """A backend's (or an inner route's) answer, re-addressed to the
    client's request; the router stamps its own elapsed time."""
    return replace(resp, id=request.id, elapsed_ms=None)


class ClusterRouter:
    """Protocol-compatible frontend over N sharded, replicated backends."""

    def __init__(
        self,
        nodes: Mapping[str, tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: RouterConfig | None = None,
    ) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one backend node")
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self.config = config or RouterConfig()
        self.ring = HashRing(
            nodes, vnodes=self.config.vnodes, replicas=self.config.replicas
        )
        self.membership = Membership(
            nodes,
            probe_interval_s=self.config.probe_interval_s,
            probe_timeout_s=self.config.connect_timeout_s,
            down_after=self.config.down_after,
            up_after=self.config.up_after,
        )
        self._pool = _BackendPool(self.membership, self.config)
        # Each op's route, by the routing class the op table declares.
        self._routes = {
            op: getattr(self, f"_route_{spec.route}") for op, spec in OPS.items()
        }
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = time.monotonic()
        #: Machines seen in acknowledged register/extend writes.  When a
        #: node dies, the machines it primarily owns are treated as dead
        #: hosts and the surviving JobManagers re-place their jobs.
        self._machine_catalog: set[str] = set()
        self._replace_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind, start probing, start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.membership.on_down = self._on_node_down
        self.membership.on_up = self._on_node_up
        self.membership.start()
        get_event_log().emit(
            "cluster_router_started",
            host=self.host,
            port=self.port,
            nodes=len(self.ring),
            replicas=self.config.replicas,
        )

    async def stop(self) -> None:
        """Stop accepting, close backend pools and the probe loop."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.membership.stop()
        for task in list(self._replace_tasks):
            task.cancel()
        if self._replace_tasks:
            await asyncio.gather(*self._replace_tasks, return_exceptions=True)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self._pool.close()
        get_event_log().emit("cluster_router_stopped")

    async def serve_forever(self) -> None:
        """Run until cancelled (start() must have been called)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    # connection handling (same framing discipline as ServeServer)
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                t = asyncio.ensure_future(self._answer(line, writer, write_lock))
                pending.add(t)
                t.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            for t in pending:
                t.cancel()
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _answer(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        t0 = time.perf_counter()
        request_id, op = "", "invalid"
        try:
            request = Request.decode(line)
            request_id, op = request.id, request.op
            route = self._routes[op]
            if request.trace is not None:
                # Adopt the client's context for this task: every span
                # below (and every forwarded backend call) joins its trace.
                ctx = TraceContext.from_wire(request.trace)
                with use_context(ctx), start_span("router.route", "router", op=op):
                    response = await route(request)
            else:
                response = await route(request)
        except ProtocolError as exc:
            response = Response.failure(
                request_id or exc.request_id, STATUS_ERROR, "ProtocolError", str(exc)
            )
        except Exception as exc:  # routing bug: answer, don't drop the line
            response = Response.failure(
                request_id, STATUS_ERROR, type(exc).__name__, str(exc)
            )
        outcome = "ok" if response.ok else response.status
        instrument("cluster_requests_routed_total").labels(op=op, outcome=outcome).inc()
        if response.elapsed_ms is None:
            response = replace(response, elapsed_ms=(time.perf_counter() - t0) * 1e3)
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(response.encode())
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------ #
    # routing (one coroutine per routing class of the op table)
    # ------------------------------------------------------------------ #

    async def _call_timed(self, node_id: str, request: Request) -> Response:
        t0 = time.perf_counter()
        try:
            resp = await self._pool.call(node_id, request)
        except (OSError, asyncio.TimeoutError):
            self.membership.report_failure(node_id)
            raise
        finally:
            instrument("cluster_shard_latency_seconds").labels(node=node_id).observe(
                time.perf_counter() - t0
            )
        return resp

    async def _call_traced(self, node_id: str, request: Request) -> Response:
        """One backend call under a ``router.call`` span (fan-out paths)."""
        with start_span("router.call", "router", node=node_id):
            return await self._call_timed(node_id, request)

    async def _fan_out(
        self, nodes: list[str], request: Request
    ) -> tuple[list[Response], list[Response]]:
        """Call ``nodes`` concurrently: ``(ok answers, refusals)`` in node
        order; unreachable nodes are left out of both."""
        answers = await asyncio.gather(
            *(self._call_traced(n, request) for n in nodes),
            return_exceptions=True,
        )
        oks: list[Response] = []
        refusals: list[Response] = []
        for resp in answers:
            if isinstance(resp, BaseException):
                if not isinstance(resp, (OSError, asyncio.TimeoutError)):
                    raise resp
                continue
            (oks if resp.ok else refusals).append(resp)
        return oks, refusals

    def _owner_key(self, request: Request) -> str:
        # Job ops shard by the job id (prefixed so job and machine key
        # spaces never collide on the ring); everything else by machine.
        key = OPS[request.op].key
        params = request.params
        if request.op == "job_put":  # the replicated record names its job
            record = params.get("record")
            params = record if isinstance(record, Mapping) else {}
        value = params.get(key)
        if value is None:
            raise ProtocolError(f"missing required param {key!r}")
        return f"job:{value}" if key == "job" else str(value)

    async def _route_local(self, request: Request) -> Response:
        """``health``: the router's own cluster view."""
        nodes = self.membership.status()
        up = sum(1 for st in nodes.values() if st["state"] == "up")
        if up == len(nodes):
            status = "ok"
        elif up > 0:
            status = "degraded"
        else:
            status = "down"
        return Response.success(request.id, {
            "status": status,
            "role": "router",
            "protocol_version": PROTOCOL_VERSION,
            "nodes": nodes,
            "up_nodes": up,
            "ring": {
                "nodes": len(self.ring),
                "replicas": self.config.replicas,
                "vnodes": self.config.vnodes,
                "write_quorum": self.config.write_quorum,
            },
            "uptime_seconds": time.monotonic() - self._started,
        })

    async def _route_owner(self, request: Request) -> Response:
        """Proxy to the owning replica set, failing over in ring order."""
        key = self._owner_key(request)
        owners = self.membership.prefer_up(self.ring.owners(key))
        backpressure: Response | None = None
        for attempt, node_id in enumerate(owners):
            # attempt > 0 IS the failover hop: the span records which
            # replica answered after the preferred owner failed.
            with start_span(
                "router.attempt", "router",
                node=node_id, attempt=attempt, failover=attempt > 0,
            ) as sp:
                try:
                    resp = await self._call_timed(node_id, request)
                except (OSError, asyncio.TimeoutError) as exc:
                    if sp is not None:
                        sp.set(outcome=f"unreachable:{type(exc).__name__}")
                    if attempt + 1 < len(owners):
                        instrument("cluster_failovers_total").inc()
                    continue
                if sp is not None:
                    sp.set(outcome=resp.status)
            if resp.backpressure:
                backpressure = resp
                if attempt + 1 < len(owners):
                    instrument("cluster_failovers_total").inc()
                continue
            # ok — or a semantic error the next replica would repeat.
            return _relay(resp, request)
        if backpressure is not None:
            return _relay(backpressure, request)
        return Response.failure(
            request.id, STATUS_ERROR, "NoReplicaAvailable",
            f"all {len(owners)} replicas of {key!r} are unreachable",
        )

    async def _route_scatter(self, request: Request) -> Response:
        """Ask every live node and merge the answers by the op's entry."""
        scatter = _SCATTERS[request.op]
        targets = self.membership.up_nodes() or self.membership.node_ids
        forwarded = Request(
            op=scatter.ask or request.op,
            params=(
                dict(request.params, missing_ok=True)
                if scatter.missing_ok else request.params
            ),
            deadline_ms=request.deadline_ms,
        )
        with start_span("router.scatter", "router", op=request.op, targets=len(targets)):
            oks, refusals = await self._fan_out(targets, forwarded)
        if not oks:
            if refusals:
                return _relay(refusals[0], request)
            return Response.failure(
                request.id, STATUS_ERROR, "NoReplicaAvailable",
                f"no node answered the {request.op} scatter",
            )
        try:
            result = scatter.merge(request.params, [resp.result for resp in oks])
        except ValueError as exc:  # ProtocolError included
            return Response.failure(
                request.id, STATUS_ERROR, type(exc).__name__, str(exc)
            )
        if scatter.shards:
            result["shards"] = {
                "queried": len(targets),
                "ok": len(oks),
                "partial": len(oks) < len(targets),
            }
        return Response.success(request.id, result)

    async def _route_quorum(self, request: Request) -> Response:
        """Fan a write out to all R owners; ack only on a write quorum."""
        key = self._owner_key(request)
        owners = self.ring.owners(key)
        quorum = min(self.config.write_quorum, len(owners))
        # The quorum wait is the write's latency floor: the gather
        # resolves only when every owner answered or failed, and the
        # span's children show which replica was the straggler.
        with start_span(
            "router.quorum_wait", "router",
            op=request.op, replicas=len(owners), required=quorum,
        ) as sp:
            acks, refusals = await self._fan_out(owners, request)
            if sp is not None:
                sp.set(acks=len(acks))
        if len(acks) < quorum:
            # A semantic refusal (bad grid, gap) is the same on every
            # replica — surface it rather than a generic quorum error.
            for refusal in refusals:
                if not refusal.backpressure:
                    return _relay(refusal, request)
            return Response.failure(
                request.id, STATUS_ERROR, "QuorumNotMet",
                f"write acknowledged by {len(acks)}/{len(owners)} replicas, "
                f"quorum is {quorum}",
            )
        result = dict(acks[0].result)
        degraded = len(acks) < len(owners)
        if degraded:
            instrument("cluster_quorum_degraded_total").inc()
        result["quorum"] = {
            "acks": len(acks),
            "replicas": len(owners),
            "required": quorum,
            "degraded": degraded,
        }
        if request.op in _HISTORY_WRITES:
            self._machine_catalog.add(key)
        return Response.success(request.id, result)

    async def _route_submit(self, request: Request) -> Response:
        """Two-phase submit: place at the primary owner, then replicate.

        Each backend holds only its shard of machine histories, so
        independent placement at every owner would diverge.  Instead the
        job-key's primary owner (with failover) places *and* adopts the
        job; the router then fans the resulting record out to the full
        R owner set as ``job_put`` under the write quorum.  The placer's
        own adopt is a version-equal no-op, so the fan-out is idempotent.
        """
        placed = await self._route_owner(request)
        if not placed.ok or not isinstance(placed.result, Mapping):
            return placed
        record = placed.result.get("record")
        if not isinstance(record, Mapping):
            return placed
        put = Request(
            op="job_put",
            params={"record": record},
            deadline_ms=request.deadline_ms,
        )
        replicated = await self._route_quorum(put)
        if not replicated.ok:
            return _relay(replicated, request)
        result = dict(placed.result)
        result["quorum"] = replicated.result.get("quorum")
        return Response.success(request.id, result)

    # ------------------------------------------------------------------ #
    # node-death reaction (membership transition hooks)
    # ------------------------------------------------------------------ #

    def _machines_owned_by(self, node_id: str) -> list[str]:
        """Cataloged machines whose *primary* owner is ``node_id``."""
        return sorted(
            m for m in self._machine_catalog if self.ring.owners(m)[0] == node_id
        )

    def _on_node_down(self, node_id: str) -> None:
        machines = self._machines_owned_by(node_id)
        if machines:
            self._spawn_replace(machines, f"node_down:{node_id}", restore=False)

    def _on_node_up(self, node_id: str) -> None:
        machines = self._machines_owned_by(node_id)
        if machines:
            self._spawn_replace(machines, f"node_up:{node_id}", restore=True)

    def _spawn_replace(self, machines: list[str], reason: str, *, restore: bool) -> None:
        request = Request(
            op="replace",
            params={"machines": machines, "reason": reason, "restore": restore},
        )
        task = asyncio.ensure_future(self._replace_after_transition(request, reason))
        self._replace_tasks.add(task)
        task.add_done_callback(self._replace_tasks.discard)

    async def _replace_after_transition(self, request: Request, reason: str) -> None:
        with start_span("sched.replace", "router", reason=reason):
            try:
                response = await self._route_scatter(request)
            except Exception as exc:
                get_event_log().emit(
                    "cluster_replace_error",
                    severity="error",
                    reason=reason,
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
        get_event_log().emit(
            "cluster_jobs_replaced",
            severity="warning",
            reason=reason,
            machines=len(request.params["machines"]),
            replaced=(response.result or {}).get("replaced"),
            ok=response.ok,
        )
