"""The load generator: a pipelined open-loop sender and a closed loop.

``ServeClient``/``AsyncServeClient`` keep one request in flight per
connection, which cannot hold an open-loop schedule on two connections.
This sender writes each pre-encoded request line when it is due and
matches replies by id (a server answers pipelined lines in completion
order).  Everything runs on one asyncio loop in one thread.

Latency is taken from the request's *due* time, so a stall also charges
the requests queued behind it; how late the sender itself ran is kept
per request (``sent - due``) and reported as ``loadgen.lag_p99_ms``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Callable, Iterator

from repro.serve.protocol import MAX_LINE_BYTES

from workloads import Req

_ID_TAG = b'"id":"'


def _peek_id(line: bytes) -> str:
    """The response id without a full JSON decode (``id`` comes second)."""
    i = line.find(_ID_TAG)
    if i >= 0:
        j = line.find(b'"', i + len(_ID_TAG))
        if j > 0:
            return line[i + len(_ID_TAG):j].decode()
    return str(json.loads(line).get("id", ""))


class Versions:
    """Per-machine extend counts: acknowledged and sent.

    A read sent after an extend's ack sees its chunk; one answered before
    the extend was sent cannot.  The oracle accepts an answer at any
    version between the two bounds recorded for each read.
    """

    def __init__(self, machines: list[str]) -> None:
        self.acked = {m: 0 for m in machines}
        self.sent = {m: 0 for m in machines}
        self._acks: dict[str, asyncio.Event] = {}

    def low(self, req: Req) -> object:
        if req.machine is not None:
            return self.acked[req.machine]
        return dict(self.acked)

    def high(self, req: Req) -> object:
        if req.machine is not None:
            return self.sent[req.machine]
        return dict(self.sent)

    def in_flight(self, machine: str) -> bool:
        return self.sent[machine] > self.acked[machine]

    async def wait_ack(self, machine: str) -> None:
        while self.in_flight(machine):
            event = self._acks.setdefault(machine, asyncio.Event())
            await event.wait()

    def on_sent(self, req: Req) -> None:
        if req.op == "extend":
            self.sent[req.machine] += 1

    def on_ack(self, req: Req) -> None:
        if req.op == "extend":
            self.acked[req.machine] += 1
            event = self._acks.pop(req.machine, None)
            if event is not None:
                event.set()


class Conn:
    """One pipelined connection: requests out, replies matched by id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[str, Req] = {}
        self.futures: dict[str, asyncio.Future] = {}

    @classmethod
    async def open(cls, host: str, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
        return cls(reader, writer)

    def send(self, req: Req) -> None:
        self.pending[req.id] = req
        req.sent = time.perf_counter()
        self.writer.write(req.encode())

    async def read_loop(self, on_reply: Callable[[Req], None]) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            t = time.perf_counter()
            req = self.pending.pop(_peek_id(line), None)
            if req is None:
                continue
            req.recv = t
            req.raw = line
            on_reply(req)
            fut = self.futures.pop(req.id, None)
            if fut is not None and not fut.done():
                fut.set_result(req)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class LoadGen:
    """Drives one deployment over at most two connections at a time."""

    def __init__(self, versions: Versions) -> None:
        self.versions = versions
        #: Routed-mix: the direct-to-backend connection for mirrored reads.
        self.mirror: Conn | None = None
        self._readers: dict[Conn, asyncio.Task] = {}
        self._outstanding = 0
        self._idle = asyncio.Event()
        self._idle.set()

    def attach(self, conn: Conn) -> Conn:
        self._readers[conn] = asyncio.ensure_future(conn.read_loop(self._on_reply))
        return conn

    async def detach(self, conn: Conn) -> None:
        task = self._readers.pop(conn)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        await conn.close()

    async def close(self) -> None:
        for conn in list(self._readers):
            await self.detach(conn)

    def _send(self, conn: Conn, req: Req) -> None:
        if req.is_read:
            req.lo = self.versions.low(req)
        self.versions.on_sent(req)
        self._outstanding += 1
        self._idle.clear()
        conn.send(req)

    def _on_reply(self, req: Req) -> None:
        self.versions.on_ack(req)
        if req.is_read:
            req.hi = self.versions.high(req)
        if req.mirror is not None and self.mirror is not None:
            # The direct copy leaves once the routed answer is in, so the
            # two never compete for the same backend worker.
            self._send(self.mirror, req.mirror)
        self._outstanding -= 1
        if self._outstanding == 0:
            self._idle.set()

    async def _send_after_ack(self, conn: Conn, req: Req) -> None:
        await self.versions.wait_ack(req.machine)
        self._send(conn, req)

    async def open_loop(self, conns: list[Conn], reqs: list[Req], *, grace_s: float = 30.0) -> None:
        """Send ``reqs`` at their due times, then wait for every reply."""
        t0 = time.perf_counter() + 0.02
        waits: list[asyncio.Task] = []
        for req in reqs:
            req.due = t0 + req.due
            delay = req.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = conns[req.conn % len(conns)]
            if req.op == "extend" and self.versions.in_flight(req.machine):
                # Two chunks of one machine must land in order.
                waits.append(asyncio.ensure_future(self._send_after_ack(conn, req)))
                continue
            self._send(conn, req)
        if waits:
            await asyncio.gather(*waits)
        try:
            await asyncio.wait_for(self._idle.wait(), grace_s)
        except asyncio.TimeoutError:
            pass  # unanswered requests count as failed

    async def _call(self, conn: Conn, req: Req, timeout_s: float) -> bool:
        """One request with nothing else in flight on ``conn``."""
        fut = asyncio.get_running_loop().create_future()
        conn.futures[req.id] = fut
        req.due = time.perf_counter()
        self._send(conn, req)
        try:
            await asyncio.wait_for(fut, timeout_s)
        except asyncio.TimeoutError:
            return False
        return True

    async def sequential(self, conn: Conn, reqs: list[Req]) -> None:
        """Send ``reqs`` one at a time."""
        for req in reqs:
            if not await self._call(conn, req, 60.0):
                return

    async def closed_loop(
        self, conns: list[Conn], streams: list[Iterator[Req]], seconds: float
    ) -> tuple[list[Req], float]:
        """One request in flight per connection for ``seconds``."""
        done: list[Req] = []
        t0 = time.perf_counter()
        end = t0 + seconds

        async def worker(conn: Conn, stream: Iterator[Req]) -> None:
            while time.perf_counter() < end:
                req = next(stream)
                done.append(req)
                if not await self._call(conn, req, 30.0):
                    return  # counted as failed: the request has no reply

        await asyncio.gather(*(worker(c, s) for c, s in zip(conns, streams)))
        return done, time.perf_counter() - t0
