"""Asyncio JSON-lines TCP server wrapping an ``AvailabilityService``.

The event loop does I/O and framing only; every decoded request is
handed to the :class:`~repro.serve.dispatch.Dispatcher`, whose worker
threads run the CPU-bound kernel math.  Responses are written back on
the request's connection as they complete, so one connection may have
many requests in flight (pipelining) and a slow query never blocks a
fast one — per-connection response order is completion order, which is
why every request carries an ``id`` for the client to match on.

Malformed input is answered, not punished: an undecodable line or an
unknown op yields a structured ``error`` response and the connection
stays open.  Only a line exceeding the protocol's size bound closes the
connection (the stream is no longer trustworthy at that point).

Shutdown (:meth:`ServeServer.stop`) is a graceful drain — the listening
socket closes first, then the dispatcher refuses new work while
in-flight requests finish, then connections are closed.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.obs.events import get_event_log
from repro.obs.instruments import instrument
from repro.serve.dispatch import DispatchConfig, Dispatcher
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    STATUS_ERROR,
    ProtocolError,
    Request,
    Response,
)

__all__ = ["ServeServer"]


class ServeServer:
    """One listening socket in front of one dispatcher."""

    def __init__(
        self,
        service: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: DispatchConfig | None = None,
        audit: Any | None = None,
        sched: Any | None = None,
        adapt: Any | None = None,
    ) -> None:
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self.dispatcher = Dispatcher(
            service, config, audit=audit, sched=sched, adapt=adapt
        )
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        get_event_log().emit("serve_started", host=self.host, port=self.port)

    async def stop(self, *, drain: bool = True) -> bool:
        """Graceful shutdown; returns True when the drain completed."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.dispatcher.close(drain=drain)
        )
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        get_event_log().emit("serve_stopped", drained=drained)
        return drained

    async def serve_forever(self) -> None:
        """Run until cancelled (start() must have been called)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        conn_gauge = instrument("serve_connections_open")
        conn_gauge.inc()
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: the framing is broken beyond repair.
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
            conn_gauge.dec()
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
        try:
            request = Request.decode(line)
        except ProtocolError as exc:
            response = Response.failure(
                exc.request_id, STATUS_ERROR, "ProtocolError", str(exc)
            )
            instrument("serve_requests_total").labels(op="invalid", status=STATUS_ERROR).inc()
        else:
            response = await asyncio.wrap_future(self.dispatcher.submit(request))
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(response.encode())
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
