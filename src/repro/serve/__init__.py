"""``repro.serve`` — the network serving tier of the State Manager.

The paper's State Manager answers a *stream* of temporal-reliability
queries from remote schedulers; this package is that serving tier for
the reproduction: a stdlib-only asyncio JSON-lines TCP server wrapping
:class:`repro.service.AvailabilityService` with request coalescing, a
bounded worker pool, admission control (load shedding), per-request
deadlines and graceful drain.

Layering::

    protocol.py   wire format: Request/Response dataclasses, the op table
    dispatch.py   Dispatcher: coalescing + worker pool + backpressure
    server.py     ServeServer: asyncio TCP front-end
    client.py     ServeClient (blocking) / AsyncServeClient (asyncio)

Start a server from the CLI (``repro-fgcs serve``) or in-process::

    server = ServeServer(service, port=0)
    await server.start()            # server.port holds the bound port
    ...
    await server.stop()             # graceful drain
"""

from repro.serve.client import AsyncServeClient, ServeClient, ServeRequestError
from repro.serve.dispatch import DispatchConfig, Dispatcher
from repro.serve.protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Response,
)
from repro.serve.server import ServeServer

__all__ = [
    "AsyncServeClient",
    "DispatchConfig",
    "Dispatcher",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "Response",
    "ServeClient",
    "ServeRequestError",
    "ServeServer",
]
