"""Wire protocol of the serving tier: JSON lines and the op table.

One request per line, one response per line, both UTF-8 JSON objects —
the simplest protocol a scheduler written in any language can speak
with nothing but a socket and a JSON parser.  A server that does not
understand a request answers with a structured error response instead
of dropping the connection, echoing the request's ``id`` whenever the
line carried one.

The protocol speaks exactly one version, :data:`PROTOCOL_VERSION`.
Clients, router and backends ship together and no peer outside this
package speaks the wire format, so a request declaring any other ``v``
is refused with one ``ProtocolError`` telling the caller to upgrade.

:data:`OPS` is the single place ops are declared.  Each
:class:`OpSpec` names the op, its routing class in a cluster and the
param that keys it on the hash ring; the dispatcher, the cluster router
and both clients are derived from it.

Request wire form::

    {"v": 8, "id": "c1-17", "op": "predict",
     "params": {"machine": "lab-03", "start_hour": 9, "hours": 5,
                "day_type": "weekday"},
     "deadline_ms": 250,
     "trace": {"trace_id": "…", "span_id": "…"}}   # optional

The ``trace`` field is the distributed-tracing envelope: requests
carrying it produce per-tier spans server-side; untraced requests omit
the key.

Response wire form::

    {"v": 8, "id": "c1-17", "status": "ok", "result": {"tr": 0.93},
     "coalesced": false, "elapsed_ms": 1.8}

``status`` is ``ok`` or one of the failure codes in :data:`STATUSES`;
``shed`` and ``shutting_down`` are the 503-style answers of admission
control — the :class:`~repro.cluster.router.ClusterRouter` reacts by
failing the request over to another replica of the shard, and a
directly-connected client retries later (``retries=`` on the clients) —
``deadline_exceeded`` means the request was admitted but expired before
a worker reached it.

This module is wire format only — no sockets, no service logic — so
both the asyncio server and the sync/async clients share one source of
truth for encoding and validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "PROTOCOL_VERSION",
    "OpSpec",
    "OPS",
    "STATUSES",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_SHED",
    "STATUS_DEADLINE",
    "STATUS_CLOSING",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "Request",
    "Response",
]

#: The one protocol version this build speaks.
PROTOCOL_VERSION = 8


@dataclass(frozen=True)
class OpSpec:
    """One op of the wire protocol."""

    name: str
    #: Routing class — how the cluster router answers the op:
    #:
    #: * ``local`` — the router answers itself (its cluster view);
    #: * ``owner`` — the key's replica set, in ring order, with failover;
    #: * ``quorum`` — every owner of the key, acked at write quorum;
    #: * ``scatter`` — every live node, answers merged by the router;
    #: * ``submit`` — placed at the job's owner, record then replicated.
    route: str
    #: The param whose value places the op on the hash ring (``owner``,
    #: ``quorum`` and ``submit`` ops).  ``job_put`` reads it from its
    #: replicated ``record``.
    key: str | None = None


#: Every op, declared once.  Adding an op takes an entry here and an
#: ``_op_<name>`` handler on the dispatcher (plus a merge entry in the
#: router when it scatters).
OPS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("health", "local"),
        # machine reads
        OpSpec("predict", "owner", "machine"),
        OpSpec("horizon", "owner", "machine"),
        OpSpec("tail", "owner", "machine"),
        # fleet reads
        OpSpec("rank", "scatter"),
        OpSpec("select", "scatter"),
        OpSpec("predict_batch", "scatter"),
        OpSpec("fleet_scan", "scatter"),
        # history writes
        OpSpec("register", "quorum", "machine"),
        OpSpec("extend", "quorum", "machine"),
        # prediction audit and the self-healing model tier
        OpSpec("quality", "scatter"),
        OpSpec("adapt_status", "scatter"),
        OpSpec("adapt_retune", "quorum", "machine"),
        OpSpec("adapt_promote", "quorum", "machine"),
        # scheduling; replace and job_put are the router's own traffic
        OpSpec("submit", "submit", "job"),
        OpSpec("job_status", "owner", "job"),
        OpSpec("cancel", "quorum", "job"),
        OpSpec("jobs", "scatter"),
        OpSpec("replace", "scatter"),
        OpSpec("job_put", "quorum", "job"),
    )
}

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_SHED = "shed"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_CLOSING = "shutting_down"

#: Every status a response may carry.
STATUSES: frozenset[str] = frozenset(
    {STATUS_OK, STATUS_ERROR, STATUS_SHED, STATUS_DEADLINE, STATUS_CLOSING}
)

#: Statuses that mean "the server refused work it was offered" — safe to
#: retry elsewhere/later, no computation happened.
BACKPRESSURE_STATUSES: frozenset[str] = frozenset({STATUS_SHED, STATUS_CLOSING})

#: Upper bound on one request/response line.  Generous enough for a
#: register op shipping a multi-week trace, small enough to stop a
#: malformed client from ballooning server memory.
MAX_LINE_BYTES = 32 * 1024 * 1024


class ProtocolError(ValueError):
    """A request (or response) that violates the wire contract.

    ``request_id`` is the ``id`` the offending line carried (empty when
    it carried none), so the refusal can still be matched by its sender.
    """

    request_id: str = ""


def _encode(obj: Mapping[str, Any]) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def _decode_line(line: bytes | str) -> dict[str, Any]:
    try:
        obj = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


@dataclass(frozen=True)
class Request:
    """One client request."""

    op: str
    params: Mapping[str, Any] = field(default_factory=dict)
    id: str = ""
    deadline_ms: float | None = None
    #: Optional distributed-tracing context.  Kept as the raw wire
    #: mapping — this module stays pure wire format; the obs layer
    #: parses it into a ``TraceContext``.  Absent (None) on untraced
    #: requests, which then carry no ``trace`` key at all.
    trace: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ProtocolError(
                f"unknown op {self.op!r}; ops: {', '.join(sorted(OPS))}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ProtocolError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )
        if self.trace is not None:
            if not isinstance(self.trace, Mapping):
                raise ProtocolError(
                    f"'trace' must be an object, got {type(self.trace).__name__}"
                )
            if not self.trace.get("trace_id") or not self.trace.get("span_id"):
                raise ProtocolError(
                    "'trace' needs non-empty trace_id and span_id"
                )

    def to_wire(self) -> dict[str, Any]:
        """The JSON-serializable wire object."""
        obj: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": self.id, "op": self.op}
        if self.params:
            obj["params"] = dict(self.params)
        if self.deadline_ms is not None:
            obj["deadline_ms"] = self.deadline_ms
        if self.trace is not None:
            obj["trace"] = dict(self.trace)
        return obj

    def encode(self) -> bytes:
        """One wire line (JSON + newline)."""
        return _encode(self.to_wire())

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "Request":
        """Validate and build a request from a decoded wire object."""
        version = obj.get("v", PROTOCOL_VERSION)
        # Exact type: true and 8.0 compare equal to ints but are not one.
        if type(version) is not int or version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version!r}: this server speaks "
                f"only v{PROTOCOL_VERSION}; upgrade the client"
            )
        if "op" not in obj:
            raise ProtocolError("request is missing 'op'")
        params = obj.get("params", {})
        if not isinstance(params, Mapping):
            raise ProtocolError(f"'params' must be an object, got {type(params).__name__}")
        deadline = obj.get("deadline_ms")
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise ProtocolError(f"'deadline_ms' must be a number, got {deadline!r}")
        trace = obj.get("trace")
        if trace is not None and not isinstance(trace, Mapping):
            raise ProtocolError(f"'trace' must be an object, got {type(trace).__name__}")
        return cls(
            op=str(obj["op"]),
            params=params,
            id=str(obj.get("id", "")),
            deadline_ms=None if deadline is None else float(deadline),
            trace=trace,
        )

    @classmethod
    def decode(cls, line: bytes | str) -> "Request":
        """Parse one wire line into a request."""
        obj = _decode_line(line)
        try:
            return cls.from_wire(obj)
        except ProtocolError as exc:
            exc.request_id = str(obj.get("id", ""))
            raise


@dataclass(frozen=True)
class Response:
    """One server response."""

    id: str
    status: str
    result: Any = None
    error: Mapping[str, str] | None = None
    coalesced: bool = False
    elapsed_ms: float | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ProtocolError(
                f"unknown status {self.status!r}; expected one of {sorted(STATUSES)}"
            )

    @property
    def ok(self) -> bool:
        """True when the request succeeded."""
        return self.status == STATUS_OK

    @property
    def backpressure(self) -> bool:
        """True when the server refused the work (shed / shutting down)."""
        return self.status in BACKPRESSURE_STATUSES

    # -- construction helpers ------------------------------------------- #

    @classmethod
    def success(
        cls,
        request_id: str,
        result: Any,
        *,
        coalesced: bool = False,
        elapsed_ms: float | None = None,
    ) -> "Response":
        """An ``ok`` response carrying ``result``."""
        return cls(
            id=request_id,
            status=STATUS_OK,
            result=result,
            coalesced=coalesced,
            elapsed_ms=elapsed_ms,
        )

    @classmethod
    def failure(
        cls,
        request_id: str,
        status: str,
        error_type: str,
        message: str,
        *,
        coalesced: bool = False,
        elapsed_ms: float | None = None,
    ) -> "Response":
        """A non-``ok`` response with a structured error."""
        return cls(
            id=request_id,
            status=status,
            error={"type": error_type, "message": message},
            coalesced=coalesced,
            elapsed_ms=elapsed_ms,
        )

    # -- wire form ------------------------------------------------------- #

    def to_wire(self) -> dict[str, Any]:
        """The JSON-serializable wire object."""
        obj: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": self.id, "status": self.status}
        if self.result is not None:
            obj["result"] = self.result
        if self.error is not None:
            obj["error"] = dict(self.error)
        if self.coalesced:
            obj["coalesced"] = True
        if self.elapsed_ms is not None:
            obj["elapsed_ms"] = round(self.elapsed_ms, 3)
        return obj

    def encode(self) -> bytes:
        """One wire line (JSON + newline)."""
        return _encode(self.to_wire())

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "Response":
        """Validate and build a response from a decoded wire object."""
        if "status" not in obj:
            raise ProtocolError("response is missing 'status'")
        error = obj.get("error")
        if error is not None and not isinstance(error, Mapping):
            raise ProtocolError(f"'error' must be an object, got {type(error).__name__}")
        return cls(
            id=str(obj.get("id", "")),
            status=str(obj["status"]),
            result=obj.get("result"),
            error=error,
            coalesced=bool(obj.get("coalesced", False)),
            elapsed_ms=obj.get("elapsed_ms"),
        )

    @classmethod
    def decode(cls, line: bytes | str) -> "Response":
        """Parse one wire line into a response."""
        return cls.from_wire(_decode_line(line))
