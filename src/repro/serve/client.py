"""Client libraries for the serving tier (sync and asyncio).

:class:`ServeClient` is the blocking client a thread-per-connection
scheduler (or the ``repro-fgcs query`` CLI and the load-generator
bench) uses; :class:`AsyncServeClient` is the same surface for asyncio
callers.  Both speak the JSON-lines protocol of
:mod:`repro.serve.protocol` over one TCP connection and issue requests
serially per connection — open more connections for parallelism, which
is also what exercises the server's concurrency.

The convenience methods (:meth:`~ServeClient.predict`, ...) raise
:class:`ServeRequestError` on any non-``ok`` status; use
:meth:`~ServeClient.request` to handle shed/deadline responses
yourself (a load balancer would retry them on another replica).

Both clients take an opt-in ``retries=`` argument covering the two
refusal modes a replica can exhibit: backpressure responses (``shed`` /
``shutting_down`` — the server refused the work without computing
anything) and *connection errors* (``ConnectionRefusedError`` /
``ConnectionResetError`` — the replica is restarting or was killed).
Both are retried up to ``retries`` times with exponential backoff and
full jitter, reconnecting first for connection errors, so a one-off CLI
query (or the cluster router's own clients) survives a transient
overload burst or a replica restart instead of failing on the first
refusal.  Connection-error retries re-send the request, which is safe
for this op set: reads are side-effect-free and ``register``/``extend``
are idempotent (replace / overlap-trim semantics).  Real errors and
deadline expirations are never retried.

Every convenience op is defined once, on :class:`_ConvenienceOps`: it
builds the op's params and hands them to a ``_call`` hook, which the
sync client answers with the result and the async client with a
coroutine — so ``await client.predict(...)`` and ``client.predict(...)``
share one definition.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import socket
import time
from typing import Any, Callable, Mapping

from repro.obs.tracing import current_context, start_span
from repro.serve.protocol import (
    BACKPRESSURE_STATUSES,
    ProtocolError,
    Request,
    Response,
)

__all__ = ["ServeClient", "AsyncServeClient", "ServeRequestError"]


class ServeRequestError(RuntimeError):
    """A request that came back with a non-``ok`` status."""

    def __init__(self, response: Response) -> None:
        error = response.error or {}
        super().__init__(
            f"request {response.id or '<anonymous>'} failed with status "
            f"{response.status!r}: {error.get('type', '?')}: "
            f"{error.get('message', '')}"
        )
        self.response = response
        self.status = response.status


def _trace_params(trace: Any) -> dict[str, Any]:
    """Wire params for shipping a ``MachineTrace`` (register / extend)."""
    return {
        "machine": trace.machine_id,
        "start_time": trace.start_time,
        "sample_period": trace.sample_period,
        "load": [float(v) for v in trace.load],
        "free_mem_mb": [float(v) for v in trace.free_mem_mb],
        "up": [bool(v) for v in trace.up],
    }


def _retry_delay(attempt: int, base_s: float, max_s: float) -> float:
    """Exponential backoff with full jitter (attempt is 0-based)."""
    return random.uniform(0.0, min(max_s, base_s * (2.0**attempt)))


def _window_params(
    start_hour: float, hours: float, day_type: str, **extra: Any
) -> dict[str, Any]:
    params = {"start_hour": start_hour, "hours": hours, "day_type": day_type}
    params.update({k: v for k, v in extra.items() if v is not None})
    return params


def _same(result: Any) -> Any:
    return result


class _ConvenienceOps:
    """The op surface shared by the sync and async clients.

    Each method builds its op's params and returns ``self._call(op,
    params, unwrap, deadline_ms)``, the hook each subclass provides: the
    sync client's returns the unwrapped result, the async client's is a
    coroutine resolving to it.  Both raise :class:`ServeRequestError` on
    a non-``ok`` status.
    """

    @staticmethod
    def _result(response: Response) -> Any:
        if not response.ok:
            raise ServeRequestError(response)
        return response.result

    def _new_request(
        self, op: str, params: Mapping[str, Any] | None, deadline_ms: float | None
    ) -> Request:
        # When a trace context is ambient, each send runs under a
        # client.request span and the *span's* context rides the wire,
        # so server-side spans parent under this attempt (retries each
        # get their own span and stay distinguishable in the tree).
        ctx = current_context()
        return Request(
            op=op,
            params=params or {},
            id=f"q{next(self._ids)}",
            deadline_ms=deadline_ms,
            trace=None if ctx is None else ctx.to_wire(),
        )

    @staticmethod
    def _reply(req: Request, line: bytes, span: Any) -> Response:
        if not line:
            raise ConnectionError("server closed the connection mid-request")
        resp = Response.decode(line)
        if resp.id != req.id:
            raise ProtocolError(f"response id {resp.id!r} does not match {req.id!r}")
        if span is not None:
            span.set(status=resp.status)
        return resp

    # -- ops ------------------------------------------------------------- #

    def predict(
        self,
        machine: str,
        start_hour: float,
        hours: float,
        day_type: str = "weekday",
        *,
        init_state: str | None = None,
        deadline_ms: float | None = None,
    ) -> float:
        """TR of one machine over one clock window."""
        params = _window_params(
            start_hour, hours, day_type, machine=machine, init_state=init_state
        )
        return self._call("predict", params, lambda r: r["tr"], deadline_ms)

    def predict_batch(
        self,
        start_hour: float,
        hours: float,
        day_type: str = "weekday",
        *,
        machines: list[str] | None = None,
        deadline_ms: float | None = None,
    ) -> dict[str, float]:
        """TR of many machines in one request.

        ``machines=None`` covers every registered machine; returns
        ``{machine: tr}``.
        """
        params = _window_params(start_hour, hours, day_type, machines=machines)
        return self._call(
            "predict_batch", params,
            lambda r: {p["machine"]: p["tr"] for p in r["predictions"]},
            deadline_ms,
        )

    def fleet_scan(
        self,
        start_hour: float,
        hours: float,
        day_type: str = "weekday",
        *,
        machines: list[str] | None = None,
        horizons_hours: list[float] | None = None,
        deadline_ms: float | None = None,
    ) -> dict[str, Any]:
        """Full fleet snapshot, best machine first.

        Each entry carries TR, the S3/S4/S5 failure split, the typical
        initial state and — when ``horizons_hours`` is given — TR at
        each sub-horizon, all from one stacked solve.
        """
        params = _window_params(
            start_hour, hours, day_type,
            machines=machines, horizons_hours=horizons_hours,
        )
        return self._call("fleet_scan", params, deadline_ms=deadline_ms)

    def rank(
        self, start_hour: float, hours: float, day_type: str = "weekday"
    ) -> list[dict[str, Any]]:
        """All machines sorted by TR, best first."""
        params = _window_params(start_hour, hours, day_type)
        return self._call("rank", params, lambda r: r["ranking"])

    def select(
        self, start_hour: float, hours: float, day_type: str = "weekday", *, k: int = 1
    ) -> dict[str, Any]:
        """Best-k machines and their gang survival."""
        params = _window_params(start_hour, hours, day_type, k=k)
        return self._call("select", params)

    def horizon(
        self,
        machine: str,
        start_hour: float,
        hours: float,
        day_type: str = "weekday",
        *,
        tr_threshold: float = 0.9,
    ) -> float:
        """Longest reliable job length (seconds) at the window start."""
        params = _window_params(
            start_hour, hours, day_type, machine=machine, tr_threshold=tr_threshold
        )
        return self._call("horizon", params, lambda r: r["horizon_seconds"])

    def register(self, trace: Any) -> dict[str, Any]:
        """Register (or replace) one machine's history from a trace."""
        return self._call("register", _trace_params(trace))

    def extend(self, chunk: Any) -> dict[str, Any]:
        """Stream a chunk of new samples for one machine."""
        return self._call("extend", _trace_params(chunk))

    def quality(self, machine: str | None = None) -> dict[str, Any]:
        """Prediction-audit scoreboard snapshots."""
        params = {} if machine is None else {"machine": machine}
        return self._call("quality", params)

    def tail(self, machine: str, n: int = 10) -> dict[str, Any]:
        """Last ``n`` samples of one machine's history."""
        return self._call("tail", {"machine": machine, "n": n})

    def health(self) -> dict[str, Any]:
        """Server liveness, queue depth, machine count."""
        return self._call("health")

    def submit(
        self,
        job: str,
        total_cpu_seconds: float,
        *,
        cpu: float = 1.0,
        mem_mb: float = 64.0,
        checkpoint_interval_s: float | None = None,
    ) -> dict[str, Any]:
        """Submit one guest job for placement."""
        params: dict[str, Any] = {
            "job": job,
            "total_cpu_seconds": total_cpu_seconds,
            "cpu": cpu,
            "mem_mb": mem_mb,
        }
        if checkpoint_interval_s is not None:
            params["checkpoint_interval_s"] = checkpoint_interval_s
        return self._call("submit", params)

    def job_status(self, job: str) -> dict[str, Any]:
        """Full record of one job, with clock-derived progress."""
        return self._call("job_status", {"job": job})

    def cancel(self, job: str) -> dict[str, Any]:
        """Cancel one job; idempotent on terminal jobs."""
        return self._call("cancel", {"job": job})

    def jobs(self) -> dict[str, Any]:
        """All job records plus scheduler stats."""
        return self._call("jobs")

    def adapt_status(self, machine: str | None = None) -> dict[str, Any]:
        """Self-healing adapt tier state."""
        params = {} if machine is None else {"machine": machine}
        return self._call("adapt_status", params)

    def adapt_retune(self, machine: str, *, trigger: str = "manual") -> dict[str, Any]:
        """Backtest candidate models for one machine."""
        return self._call("adapt_retune", {"machine": machine, "trigger": trigger})

    def adapt_promote(self, machine: str, *, force: bool = False) -> dict[str, Any]:
        """Promote the machine's shadow challenger."""
        return self._call("adapt_promote", {"machine": machine, "force": force})


class ServeClient(_ConvenienceOps):
    """Blocking JSON-lines client over one TCP connection.

    ``retries`` bounds how many times a backpressure response or a
    connection error is retried (0: fail fast, the default);
    ``retry_backoff_s`` is the base of the jittered exponential backoff,
    capped at ``retry_backoff_max_s``.  A connection-error retry
    reconnects to the same ``(host, port)`` before re-sending.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float | None = 10.0,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
        retry_backoff_max_s: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._file: Any = None
        self._connect()
        self._ids = itertools.count(1)
        self._retries = int(retries)
        self._backoff_s = retry_backoff_s
        self._backoff_max_s = retry_backoff_max_s

    # -- plumbing -------------------------------------------------------- #

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._file = self._sock.makefile("rwb")

    def _teardown(self) -> None:
        """Drop a broken connection (close() tolerates this state)."""
        try:
            self.close()
        except OSError:
            pass
        self._sock = None
        self._file = None

    def close(self) -> None:
        """Close the connection."""
        if self._sock is None:
            return
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def request(
        self,
        op: str,
        params: Mapping[str, Any] | None = None,
        deadline_ms: float | None = None,
    ) -> Response:
        """Send one request; blocks for it, retrying refusals if opted in.

        Backpressure responses are retried in place; connection errors
        (refused while restarting, reset by a killed replica) tear the
        connection down and reconnect before re-sending.
        """
        for attempt in itertools.count():
            try:
                if self._sock is None:
                    self._connect()
                resp = self._request_once(op, params, deadline_ms)
            except ConnectionError:
                self._teardown()
                if attempt >= self._retries:
                    raise
                time.sleep(_retry_delay(attempt, self._backoff_s, self._backoff_max_s))
                continue
            if resp.status in BACKPRESSURE_STATUSES and attempt < self._retries:
                time.sleep(_retry_delay(attempt, self._backoff_s, self._backoff_max_s))
                continue
            return resp
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self,
        op: str,
        params: Mapping[str, Any] | None,
        deadline_ms: float | None,
    ) -> Response:
        with start_span("client.request", "client", op=op) as sp:
            req = self._new_request(op, params, deadline_ms)
            self._file.write(req.encode())
            self._file.flush()
            return self._reply(req, self._file.readline(), sp)

    def _call(
        self,
        op: str,
        params: Mapping[str, Any] | None = None,
        unwrap: Callable[[Any], Any] = _same,
        deadline_ms: float | None = None,
    ) -> Any:
        return unwrap(self._result(self.request(op, params, deadline_ms)))


class AsyncServeClient(_ConvenienceOps):
    """Asyncio JSON-lines client over one TCP connection.

    Construct via :meth:`connect`; the op methods mirror
    :class:`ServeClient` but are coroutines, and backpressure retries
    sleep with ``asyncio.sleep`` instead of blocking.  Connection-error
    retries (which reconnect first) need the server address, so they are
    available on clients built via :meth:`connect` but not on clients
    wrapped around an existing reader/writer pair.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
        retry_backoff_max_s: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._reader: asyncio.StreamReader | None = reader
        self._writer: asyncio.StreamWriter | None = writer
        self._host: str | None = None
        self._port: int | None = None
        self._ids = itertools.count(1)
        self._retries = int(retries)
        self._backoff_s = retry_backoff_s
        self._backoff_max_s = retry_backoff_max_s

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retries: int = 0,
        retry_backoff_s: float = 0.05,
        retry_backoff_max_s: float = 2.0,
    ) -> "AsyncServeClient":
        """Open a connection and return a ready (reconnectable) client."""
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(
            reader,
            writer,
            retries=retries,
            retry_backoff_s=retry_backoff_s,
            retry_backoff_max_s=retry_backoff_max_s,
        )
        client._host = host
        client._port = port
        return client

    async def _reconnect(self) -> None:
        if self._host is None or self._port is None:
            raise ConnectionError(
                "connection lost and this client was built from a raw "
                "reader/writer pair; use AsyncServeClient.connect() for "
                "reconnectable clients"
            )
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def _teardown(self) -> None:
        if self._writer is not None:
            writer, self._writer, self._reader = self._writer, None, None
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def close(self) -> None:
        """Close the connection."""
        if self._writer is None:
            return
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def request(
        self,
        op: str,
        params: Mapping[str, Any] | None = None,
        deadline_ms: float | None = None,
    ) -> Response:
        """Send one request; awaits it, retrying refusals if opted in.

        Backpressure responses are retried in place; connection errors
        reconnect (clients built via :meth:`connect`) before re-sending.
        """
        for attempt in itertools.count():
            try:
                if self._writer is None:
                    await self._reconnect()
                resp = await self._request_once(op, params, deadline_ms)
            except ConnectionError:
                await self._teardown()
                if attempt >= self._retries:
                    raise
                await asyncio.sleep(
                    _retry_delay(attempt, self._backoff_s, self._backoff_max_s)
                )
                continue
            if resp.status in BACKPRESSURE_STATUSES and attempt < self._retries:
                await asyncio.sleep(
                    _retry_delay(attempt, self._backoff_s, self._backoff_max_s)
                )
                continue
            return resp
        raise AssertionError("unreachable")  # pragma: no cover

    async def _request_once(
        self,
        op: str,
        params: Mapping[str, Any] | None,
        deadline_ms: float | None,
    ) -> Response:
        # contextvars follow the current asyncio task, so concurrent
        # requests each get their own client.request span.
        with start_span("client.request", "client", op=op) as sp:
            req = self._new_request(op, params, deadline_ms)
            self._writer.write(req.encode())
            await self._writer.drain()
            return self._reply(req, await self._reader.readline(), sp)

    async def _call(
        self,
        op: str,
        params: Mapping[str, Any] | None = None,
        unwrap: Callable[[Any], Any] = _same,
        deadline_ms: float | None = None,
    ) -> Any:
        return unwrap(self._result(await self.request(op, params, deadline_ms)))
