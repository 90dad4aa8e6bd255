"""Causal, end-to-end request tracing: contexts, spans, JSONL export.

One *trace* is the journey of one request through the whole service
stack — client → router → backend node → dispatcher → predictor /
store / audit — stitched together across process boundaries by a
:class:`TraceContext` carried in the wire protocol's optional ``trace``
envelope field (untraced requests omit it).

The design splits cleanly into three parts:

:class:`TraceContext`
    the (trace_id, span_id, parent_id) triple that crosses the wire.
    Inside a process it propagates through a :mod:`contextvars` variable
    — natural for asyncio tasks; thread pools must activate it
    explicitly (see :meth:`~repro.serve.dispatch.Dispatcher`).

:class:`Span` / :func:`start_span`
    one timed operation.  ``start_span`` is the instrumentation
    primitive: when no context is active it yields ``None`` and records
    nothing, so instrumented hot paths pay exactly one context-variable
    read per call when tracing is off — the zero-cost-when-disabled
    property the serving bench asserts.

:class:`SpanRecorder`
    a bounded in-process buffer of finished spans with an optional
    JSONL sink.  When a sink path is configured every span is appended
    (and flushed) as it finishes, so even a SIGKILLed node leaves its
    spans on disk for ``repro trace`` to reconstruct.

Like the metrics registry and the event log, the recorder is a swappable
process-global (:func:`get_recorder` / :func:`scoped_recorder`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = [
    "TraceContext",
    "Span",
    "SpanHandle",
    "SpanRecorder",
    "annotate",
    "current_context",
    "get_recorder",
    "record_span",
    "reset_recorder",
    "scoped_recorder",
    "set_recorder",
    "start_span",
    "use_context",
]

#: Service tiers a span may belong to (the DESIGN.md span taxonomy).
TIERS = ("client", "router", "serve", "predict", "store", "audit")

#: Default bound on buffered finished spans per process.
DEFAULT_CAPACITY = 4096


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """The identity triple that ties spans into one causal tree.

    ``trace_id`` names the whole request journey; ``span_id`` names the
    current operation; ``parent_id`` is the operation that caused it
    (None for the root).
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def new_root(cls) -> "TraceContext":
        """A fresh root context (new trace, no parent)."""
        return cls(trace_id=_new_id(16), span_id=_new_id(8), parent_id=None)

    def child(self) -> "TraceContext":
        """A child context: same trace, new span, parented to this one."""
        return TraceContext(
            trace_id=self.trace_id, span_id=_new_id(8), parent_id=self.span_id
        )

    def to_wire(self) -> dict[str, str]:
        """The JSON-serializable wire form (protocol ``trace`` field)."""
        obj = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            obj["parent_id"] = self.parent_id
        return obj

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "TraceContext":
        """Validate and build a context from a decoded wire object."""
        trace_id = obj.get("trace_id")
        span_id = obj.get("span_id")
        if not trace_id or not span_id:
            raise ValueError(f"trace envelope needs trace_id and span_id, got {obj!r}")
        parent = obj.get("parent_id")
        return cls(
            trace_id=str(trace_id),
            span_id=str(span_id),
            parent_id=None if parent is None else str(parent),
        )


@dataclass(frozen=True)
class Span:
    """One finished, timed operation inside a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    tier: str
    start: float  # epoch seconds (wall clock, for cross-process ordering)
    duration_s: float
    status: str = "ok"  # ok | error
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """Epoch seconds at which the span finished."""
        return self.start + self.duration_s

    def to_wire(self) -> dict[str, Any]:
        """The JSONL record form."""
        obj: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "tier": self.tier,
            "start": self.start,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.parent_id is not None:
            obj["parent_id"] = self.parent_id
        if self.attrs:
            obj["attrs"] = dict(self.attrs)
        return obj

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "Span":
        """Build a span from a decoded JSONL record."""
        return cls(
            trace_id=str(obj["trace_id"]),
            span_id=str(obj["span_id"]),
            parent_id=(None if obj.get("parent_id") is None else str(obj["parent_id"])),
            name=str(obj["name"]),
            tier=str(obj.get("tier", "")),
            start=float(obj["start"]),
            duration_s=float(obj["duration_s"]),
            status=str(obj.get("status", "ok")),
            attrs=dict(obj.get("attrs", {})),
        )


class SpanRecorder:
    """Bounded buffer of finished spans with an optional JSONL sink.

    ``record`` is thread-safe.  With a sink configured, each span is
    appended to the file and flushed immediately — traced requests are
    rare relative to total traffic, and eager flushing is what makes the
    trail survive a SIGKILLed node (the cluster failover tests rely on
    this).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        export_path: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buffer: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._fh = None
        self.export_path: Path | None = None
        if export_path is not None:
            self.open_sink(export_path)

    # ------------------------------------------------------------------ #

    def open_sink(self, path: str | Path) -> Path:
        """Start appending every recorded span to ``path`` (JSONL)."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            if self._fh is not None:
                self._fh.close()
            self._fh = open(path, "a", encoding="utf-8")
            self.export_path = path
        return path

    def record(self, span: Span) -> None:
        """Buffer one finished span (and append it to the sink, if any)."""
        with self._lock:
            self._buffer.append(span)
            if self._fh is not None:
                self._fh.write(json.dumps(span.to_wire(), separators=(",", ":")) + "\n")
                self._fh.flush()

    def spans(self) -> list[Span]:
        """Snapshot of the buffered spans, oldest first."""
        with self._lock:
            return list(self._buffer)

    def clear(self) -> None:
        """Drop the buffered spans (the sink file is left untouched)."""
        with self._lock:
            self._buffer.clear()

    def export(self, path: str | Path) -> Path:
        """Append every *buffered* span to ``path`` as JSONL.

        Used by the CLI drain path when no eager sink was configured;
        with a sink this would duplicate records, so it skips spans the
        sink already holds by comparing against the sink path.
        """
        path = Path(path)
        if self.export_path is not None and path.resolve() == self.export_path.resolve():
            with self._lock:
                if self._fh is not None:
                    self._fh.flush()
            return path
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self._buffer)
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_wire(), separators=(",", ":")) + "\n")
        return path

    def close(self) -> None:
        """Flush and close the sink (the buffer stays readable)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)


# ---------------------------------------------------------------------- #
# the process-global recorder and current context
# ---------------------------------------------------------------------- #

_default_recorder = SpanRecorder()

_current_context: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)
_current_handle: ContextVar["SpanHandle | None"] = ContextVar(
    "repro_span_handle", default=None
)


def get_recorder() -> SpanRecorder:
    """The current process-global span recorder."""
    return _default_recorder


def set_recorder(recorder: SpanRecorder) -> SpanRecorder:
    """Swap in ``recorder`` as the process-global default; returns the old one."""
    global _default_recorder
    old = _default_recorder
    _default_recorder = recorder
    return old


def reset_recorder() -> SpanRecorder:
    """Replace the default recorder with a fresh empty one and return it."""
    fresh = SpanRecorder()
    set_recorder(fresh)
    return fresh


@contextmanager
def scoped_recorder(recorder: SpanRecorder | None = None) -> Iterator[SpanRecorder]:
    """Temporarily make ``recorder`` (or a fresh one) the default."""
    rec = recorder if recorder is not None else SpanRecorder()
    old = set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(old)


def current_context() -> TraceContext | None:
    """The active trace context of this task/thread, or None (untraced)."""
    return _current_context.get()


@contextmanager
def use_context(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``context`` the active trace context for the block.

    Passing None explicitly deactivates tracing inside the block.  This
    is how code at a process/thread boundary (a server handling a wire
    request, a dispatcher worker) adopts a remotely-created context.
    """
    token = _current_context.set(context)
    try:
        yield context
    finally:
        _current_context.reset(token)


class SpanHandle:
    """Mutable view of an in-flight span (set attributes mid-span)."""

    __slots__ = ("context", "attrs")

    def __init__(self, context: TraceContext) -> None:
        self.context = context
        self.attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (last write per key wins)."""
        self.attrs.update(attrs)


@contextmanager
def start_span(
    name: str,
    tier: str,
    *,
    context: TraceContext | None = None,
    **attrs: Any,
) -> Iterator[SpanHandle | None]:
    """Open a child span under the active (or given) context.

    Yields a :class:`SpanHandle` — or **None when tracing is inactive**,
    in which case nothing is timed or recorded; callers on hot paths
    guard attribute writes with ``if sp is not None``.  The span is
    recorded even when the block raises (status ``error``), so failure
    paths stay visible in the trace tree.
    """
    ctx = context if context is not None else _current_context.get()
    if ctx is None:
        yield None
        return
    child = ctx.child()
    handle = SpanHandle(child)
    if attrs:
        handle.attrs.update(attrs)
    ctx_token = _current_context.set(child)
    handle_token = _current_handle.set(handle)
    start = time.time()
    t0 = time.perf_counter()
    status = "ok"
    try:
        yield handle
    except BaseException:
        status = "error"
        raise
    finally:
        duration = time.perf_counter() - t0
        _current_handle.reset(handle_token)
        _current_context.reset(ctx_token)
        get_recorder().record(
            Span(
                trace_id=child.trace_id,
                span_id=child.span_id,
                parent_id=child.parent_id,
                name=name,
                tier=tier,
                start=start,
                duration_s=duration,
                status=status,
                attrs=dict(handle.attrs),
            )
        )


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost active span, if any.

    Lets deep code (the predictor's day cache, say) enrich the span its
    caller opened without threading a handle through every signature.
    No-op when untraced.
    """
    handle = _current_handle.get()
    if handle is not None:
        handle.set(**attrs)


def record_span(
    name: str,
    tier: str,
    *,
    context: TraceContext,
    start: float,
    duration_s: float,
    status: str = "ok",
    **attrs: Any,
) -> Span:
    """Record an already-measured span under ``context``'s own span id.

    For retroactive measurements — queue wait, coalesced joins — where
    the interval was timed before a context could be activated.  Unlike
    :func:`start_span` this does *not* mint a child id: the span IS the
    operation the context names.
    """
    span = Span(
        trace_id=context.trace_id,
        span_id=context.span_id,
        parent_id=context.parent_id,
        name=name,
        tier=tier,
        start=start,
        duration_s=duration_s,
        status=status,
        attrs=dict(attrs),
    )
    get_recorder().record(span)
    return span
