"""Request dispatcher: coalescing, worker pool, admission control.

The dispatcher is the concurrency heart of the serving tier and is
deliberately transport-free: the asyncio server hands it decoded
:class:`~repro.serve.protocol.Request` objects and gets back
``concurrent.futures.Future`` objects resolving to
:class:`~repro.serve.protocol.Response`; tests and embedders can drive
it directly without a socket.

Three mechanisms keep a burst of schedulers from melting the predictor:

**Coalescing.**  Identical in-flight ``predict`` queries — same
``(machine, window, day type, init state)`` — share one computation.
The first request becomes the *primary* and occupies a worker slot;
followers attach a callback to the primary's computation future and
consume no queue depth and no worker time.  Follower responses are
marked ``coalesced`` so clients (and the bench) can observe the merge.

**Admission control.**  At most ``queue_depth`` requests may be
admitted-but-unanswered at once.  Requests beyond that are refused
immediately with a 503-style ``shed`` response — the caller learns in
microseconds that this replica is saturated, instead of waiting in an
unbounded queue (the classic overload failure mode).

**Deadlines.**  A request may carry ``deadline_ms``; if a worker reaches
it after the deadline passed, the computation is skipped and the client
gets ``deadline_exceeded``.  Expired work is the other half of overload
behavior: computing an answer nobody is waiting for anymore only steals
capacity from answerable requests.

Shutdown is a graceful drain: new work is refused with
``shutting_down`` while admitted requests finish (bounded by
``drain_timeout_s``).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.states import State
from repro.core.windows import ClockWindow, DayType
from repro.obs.events import get_event_log
from repro.obs.instruments import instrument
from repro.obs.tracing import TraceContext, record_span, start_span, use_context
from repro.serve.protocol import (
    OPS,
    PROTOCOL_VERSION,
    STATUS_CLOSING,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_SHED,
    ProtocolError,
    Request,
    Response,
)
from repro.traces.trace import MachineTrace

__all__ = [
    "DispatchConfig",
    "Dispatcher",
    "DeadlineExceeded",
    "SchedulerDisabled",
    "AdaptDisabled",
]


class DeadlineExceeded(Exception):
    """The request's deadline passed before a worker reached it."""


class SchedulerDisabled(RuntimeError):
    """A scheduling op reached a node running without a JobManager."""


class AdaptDisabled(RuntimeError):
    """An adapt op reached a node running without an AdaptController."""


@dataclass(frozen=True)
class DispatchConfig:
    """Tuning knobs of one dispatcher instance."""

    #: Worker threads running CPU-bound kernel work.
    max_workers: int = 4
    #: Maximum admitted-but-unanswered requests before shedding.
    queue_depth: int = 64
    #: Deadline applied to requests that do not carry their own (None:
    #: requests without a deadline never expire).
    default_deadline_ms: float | None = None
    #: How long close(drain=True) waits for in-flight work.
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be positive, got {self.default_deadline_ms}"
            )


# ---------------------------------------------------------------------- #
# request parameter parsing
# ---------------------------------------------------------------------- #


def _require(params: Mapping[str, Any], key: str) -> Any:
    if key not in params:
        raise ProtocolError(f"missing required param {key!r}")
    return params[key]


def _parse_window(params: Mapping[str, Any]) -> tuple[ClockWindow, DayType]:
    window = ClockWindow.from_hours(
        float(_require(params, "start_hour")), float(_require(params, "hours"))
    )
    raw = params.get("day_type", DayType.WEEKDAY.value)
    try:
        dtype = DayType(raw)
    except ValueError:
        raise ProtocolError(
            f"unknown day_type {raw!r}; expected one of "
            f"{[d.value for d in DayType]}"
        ) from None
    return window, dtype


def _parse_init_state(params: Mapping[str, Any]) -> State | None:
    raw = params.get("init_state")
    if raw is None:
        return None
    try:
        return State[str(raw).upper()]
    except KeyError:
        raise ProtocolError(
            f"unknown init_state {raw!r}; expected one of {[s.name for s in State]}"
        ) from None


# ---------------------------------------------------------------------- #


class Dispatcher:
    """Executes requests against an ``AvailabilityService`` on a pool."""

    def __init__(
        self,
        service: Any,
        config: DispatchConfig | None = None,
        *,
        audit: Any | None = None,
        sched: Any | None = None,
        adapt: Any | None = None,
    ) -> None:
        self.service = service
        self.config = config or DispatchConfig()
        #: Optional PredictionAudit: journals served predict/horizon
        #: responses and resolves them as extend/register ingest samples.
        self.audit = audit
        #: Optional JobManager answering the scheduling ops.
        self.sched = sched
        #: Optional AdaptController closing the audit's alarm loop.
        self.adapt = adapt
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._inflight: dict[tuple, Future] = {}
        self._admitted = 0
        self._closing = False
        self._started = time.monotonic()
        # register mutates the service while queries read it; serialize
        # writers against each other (readers stay lock-free, see the
        # thread-safety notes in service.py / core/online.py).
        self._register_lock = threading.Lock()
        # Derived from the op table: a table op without a handler fails
        # here, when the dispatcher is built.
        self._handlers: dict[str, Callable[[Mapping[str, Any]], Any]] = {
            op: getattr(self, f"_op_{op}") for op in OPS
        }

    # ------------------------------------------------------------------ #
    # submission path
    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> "Future[Response]":
        """Admit one request; the future resolves to its response.

        The future always resolves to a :class:`Response` — errors,
        sheds and deadline expirations are response statuses, never
        exceptions on the future.
        """
        t0 = time.perf_counter()
        out: Future[Response] = Future()
        out.set_running_or_notify_cancel()

        # health answers inline: it is O(1), must work under overload
        # (it is how operators see the overload), and during drain.
        if request.op == "health":
            self._finish_value(out, request, t0, self._op_health(request.params))
            return out

        # Bookkeeping happens under the lock; callbacks are attached only
        # after releasing it, because add_done_callback on an
        # already-finished future runs the callback inline in *this*
        # thread — which must therefore not be holding the lock the
        # callbacks acquire.
        key = self._coalesce_key(request)
        primary: Future | None = None
        with self._lock:
            if self._closing:
                self._refuse(out, request, t0, STATUS_CLOSING)
                return out
            if key is not None:
                primary = self._inflight.get(key)
            if primary is None:
                if self._admitted >= self.config.queue_depth:
                    instrument("serve_shed_total").inc()
                    self._refuse(out, request, t0, STATUS_SHED)
                    return out
                self._admitted += 1
                instrument("serve_queue_depth").set(self._admitted)
                deadline_ms = (
                    request.deadline_ms
                    if request.deadline_ms is not None
                    else self.config.default_deadline_ms
                )
                expires = (
                    None if deadline_ms is None
                    else time.monotonic() + deadline_ms / 1e3
                )
                comp = self._executor.submit(
                    self._execute, request, expires, time.time()
                )
                if key is not None:
                    self._inflight[key] = comp
        if primary is not None:
            instrument("serve_coalesced_requests_total").inc()
            primary.add_done_callback(
                lambda f: self._finish(out, request, t0, f, coalesced=True)
            )
            return out
        if key is not None:
            comp.add_done_callback(lambda f, k=key: self._forget(k, f))
        comp.add_done_callback(lambda f: self._release())
        comp.add_done_callback(
            lambda f: self._finish(out, request, t0, f, coalesced=False)
        )
        return out

    def _coalesce_key(self, request: Request) -> tuple | None:
        """The identity under which a request may share a computation."""
        if request.op != "predict":
            return None
        p = request.params
        return (
            "predict",
            p.get("machine"),
            p.get("start_hour"),
            p.get("hours"),
            p.get("day_type", DayType.WEEKDAY.value),
            p.get("init_state"),
        )

    @staticmethod
    def _trace_context(request: Request) -> TraceContext | None:
        """The request's wire trace context, or None when untraced."""
        if request.trace is None:
            return None
        try:
            return TraceContext.from_wire(request.trace)
        except ValueError:
            return None

    @staticmethod
    def _check_deadline(request: Request, expires: float | None) -> None:
        if expires is not None and time.monotonic() > expires:
            raise DeadlineExceeded(
                f"deadline passed before a worker reached op {request.op!r}"
            )

    def _execute(self, request: Request, expires: float | None, submitted: float) -> Any:
        ctx = self._trace_context(request)
        if ctx is None:
            self._check_deadline(request, expires)
            return self._handlers[request.op](request.params)
        # contextvars do not cross into pool threads, so the worker
        # re-activates the wire context explicitly.  Queue wait (submit
        # → worker pickup) already happened; record it retroactively as
        # a sibling of the compute span.
        record_span(
            "dispatch.queue_wait", "serve", context=ctx.child(),
            start=submitted, duration_s=time.time() - submitted, op=request.op,
        )
        with use_context(ctx), start_span("dispatch.compute", "serve", op=request.op):
            self._check_deadline(request, expires)
            return self._handlers[request.op](request.params)

    # -- completion plumbing -------------------------------------------- #

    def _forget(self, key: tuple, _f: Future) -> None:
        with self._lock:
            if self._inflight.get(key) is _f:
                del self._inflight[key]

    def _release(self) -> None:
        with self._lock:
            self._admitted -= 1
            instrument("serve_queue_depth").set(self._admitted)
            if self._admitted == 0:
                self._drained.notify_all()

    def _refuse(self, out: Future, request: Request, t0: float, status: str) -> None:
        message = (
            "server is shutting down; no new work accepted"
            if status == STATUS_CLOSING
            else f"admission queue full ({self.config.queue_depth} in flight); retry later"
        )
        self._finish_response(
            out,
            request,
            Response.failure(
                request.id, status, "Overload", message,
                elapsed_ms=(time.perf_counter() - t0) * 1e3,
            ),
        )

    def _finish_value(self, out: Future, request: Request, t0: float, value: Any) -> None:
        self._finish_response(
            out,
            request,
            Response.success(
                request.id, value, elapsed_ms=(time.perf_counter() - t0) * 1e3
            ),
        )

    def _finish(
        self, out: Future, request: Request, t0: float, comp: Future, *, coalesced: bool
    ) -> None:
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if coalesced:
            ctx = self._trace_context(request)
            if ctx is not None:
                # The follower never ran: its whole latency was waiting
                # for the primary's computation to land.
                record_span(
                    "dispatch.coalesced_join", "serve", context=ctx.child(),
                    start=time.time() - elapsed_ms / 1e3,
                    duration_s=elapsed_ms / 1e3, op=request.op,
                )
        exc = comp.exception()
        if exc is None:
            resp = Response.success(
                request.id, comp.result(), coalesced=coalesced, elapsed_ms=elapsed_ms
            )
        elif isinstance(exc, DeadlineExceeded):
            resp = Response.failure(
                request.id, STATUS_DEADLINE, "DeadlineExceeded", str(exc),
                coalesced=coalesced, elapsed_ms=elapsed_ms,
            )
        else:
            resp = Response.failure(
                request.id, STATUS_ERROR, type(exc).__name__, str(exc),
                coalesced=coalesced, elapsed_ms=elapsed_ms,
            )
        self._finish_response(out, request, resp)

    def _finish_response(self, out: Future, request: Request, resp: Response) -> None:
        instrument("serve_requests_total").labels(op=request.op, status=resp.status).inc()
        if resp.elapsed_ms is not None:
            instrument("serve_request_latency_seconds").labels(op=request.op).observe(
                resp.elapsed_ms / 1e3
            )
        out.set_result(resp)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def admitted(self) -> int:
        """Requests currently admitted but unanswered."""
        with self._lock:
            return self._admitted

    @property
    def closing(self) -> bool:
        """True once close() started; new work is being refused."""
        with self._lock:
            return self._closing

    def close(self, *, drain: bool = True) -> bool:
        """Stop accepting work; optionally wait for in-flight requests.

        Returns True when every admitted request finished before the
        drain timeout (vacuously True for ``drain=False``).
        """
        with self._lock:
            self._closing = True
            ok = True
            if drain:
                deadline = time.monotonic() + self.config.drain_timeout_s
                while self._admitted > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        ok = False
                        break
                    self._drained.wait(remaining)
        self._executor.shutdown(wait=drain and ok)
        if self.audit is not None:
            # After the drain no worker is journaling; flush so a restart
            # recovers the full audit trail with no torn tail.
            self.audit.close()
        if self.sched is not None:
            # Same contract for the scheduler WAL: every acknowledged
            # transition must be replayable after restart.
            self.sched.close()
        return ok

    # ------------------------------------------------------------------ #
    # op handlers (run on worker threads)
    # ------------------------------------------------------------------ #

    def _op_predict(self, params: Mapping[str, Any]) -> dict[str, Any]:
        machine = str(_require(params, "machine"))
        window, dtype = _parse_window(params)
        init_state = _parse_init_state(params)
        tr = self.service.predict(machine, window, dtype, init_state=init_state)
        if self.adapt is None:
            self._journal("predict", machine, window, dtype, tr, init_state)
            return {"machine": machine, "tr": tr}
        # The adapt tier may substitute the calibrated fallback; what is
        # journaled (and therefore scored) is what the client received.
        served, source = self._adapt_serve(machine, window, dtype, tr)
        self._journal("predict", machine, window, dtype, served, init_state)
        self._adapt_shadow("predict", machine, window, dtype, init_state)
        result = {"machine": machine, "tr": served}
        if source != "model":
            result["source"] = source
        return result

    def _parse_machines(self, params: Mapping[str, Any]) -> list[str] | None:
        """The validated ``machines`` list of a fleet op (None = all).

        ``missing_ok`` (the cluster router sets it on scatter, since each
        shard owns only a subset) drops unknown ids instead of erroring.
        """
        raw = params.get("machines")
        if raw is None:
            return None
        if not isinstance(raw, (list, tuple)):
            raise ProtocolError(
                f"'machines' must be a list, got {type(raw).__name__}"
            )
        machines = [str(m) for m in raw]
        if bool(params.get("missing_ok", False)):
            return [m for m in machines if m in self.service]
        unknown = sorted(m for m in machines if m not in self.service)
        if unknown:
            raise ProtocolError(
                f"machines not registered: {', '.join(unknown)}"
            )
        return machines

    def _op_predict_batch(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """TR for many machines in one stacked solve."""
        window, dtype = _parse_window(params)
        machines = self._parse_machines(params)
        if machines is not None and not machines:
            return {"predictions": [], "count": 0}
        trs = self.service.predict_batch(machines, window, dtype)
        return {
            "predictions": [
                {"machine": m, "tr": float(trs[m])} for m in sorted(trs)
            ],
            "count": len(trs),
        }

    def _op_fleet_scan(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Full fleet snapshot: TR, failure split, sub-horizon TRs."""
        window, dtype = _parse_window(params)
        machines = self._parse_machines(params)
        horizons = params.get("horizons_hours")
        if horizons is not None:
            if not isinstance(horizons, (list, tuple)):
                raise ProtocolError(
                    f"'horizons_hours' must be a list, got {type(horizons).__name__}"
                )
            horizons = [float(h) for h in horizons]
            for h in horizons:
                if h <= 0:
                    raise ProtocolError(
                        f"horizons_hours entries must be positive, got {h}"
                    )
        if machines is not None and not machines:
            return {"machines": [], "count": 0, "horizons_hours": horizons or []}
        scan = self.service.fleet_scan(window, dtype, machines=machines)
        entries = []
        for i, mid in enumerate(scan.machine_ids):
            entry: dict[str, Any] = {
                "machine": mid,
                "tr": float(scan.tr[i]),
                "fail": {
                    "s3": float(scan.fail[i, 0]),
                    "s4": float(scan.fail[i, 1]),
                    "s5": float(scan.fail[i, 2]),
                },
                "init_state": f"S{int(scan.init_states[i])}",
            }
            if horizons:
                entry["tr_at"] = [
                    float(scan.tr_at(mid, h * 3600.0)) for h in horizons
                ]
            entries.append(entry)
        entries.sort(key=lambda e: (-e["tr"], e["machine"]))
        return {
            "machines": entries,
            "count": len(entries),
            "horizons_hours": horizons or [],
        }

    def _op_rank(self, params: Mapping[str, Any]) -> dict[str, Any]:
        window, dtype = _parse_window(params)
        ranking = self.service.rank(window, dtype)
        return {"ranking": [{"machine": r.machine_id, "tr": r.tr} for r in ranking]}

    def _op_select(self, params: Mapping[str, Any]) -> dict[str, Any]:
        window, dtype = _parse_window(params)
        k = int(params.get("k", 1))
        machines, survival = self.service.select(window, dtype, k=k)
        return {"machines": machines, "survival": survival, "k": k}

    def _op_horizon(self, params: Mapping[str, Any]) -> dict[str, Any]:
        machine = str(_require(params, "machine"))
        window, dtype = _parse_window(params)
        threshold = float(params.get("tr_threshold", 0.9))
        seconds = self.service.reliable_horizon(
            machine, window, dtype, tr_threshold=threshold
        )
        if seconds > 0:
            # The horizon response claims "this window prefix survives
            # with probability >= threshold" — journal exactly that claim.
            self._journal(
                "horizon",
                machine,
                ClockWindow(start=window.start, duration=seconds),
                dtype,
                threshold,
                None,
            )
        return {"machine": machine, "horizon_seconds": seconds, "tr_threshold": threshold}

    def _op_register(self, params: Mapping[str, Any]) -> dict[str, Any]:
        trace = self._parse_trace(params)
        with self._register_lock:
            replaced = trace.machine_id in self.service
            self.service.register(trace)
            self._observe_ingest(trace.machine_id, trace)
        return {
            "machine": trace.machine_id,
            "n_samples": trace.n_samples,
            "replaced": replaced,
        }

    def _op_extend(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Stream a chunk of new samples for one machine.

        Unlike ``register`` (which replaces the whole history and drops
        its caches), ``extend`` grows the history in place, keeps the
        per-day caches, and — when the service has a backing store —
        persists the chunk before acknowledging.  Overlapping retries
        are trimmed, so at-least-once delivery is safe.
        """
        chunk = self._parse_trace(params)
        with self._register_lock:
            before = (
                self.service._histories[chunk.machine_id].n_samples
                if chunk.machine_id in self.service
                else 0
            )
            grown = self.service.append_samples(chunk)
            self._observe_ingest(chunk.machine_id, grown)
        return {
            "machine": chunk.machine_id,
            "appended": grown.n_samples - before,
            "n_samples": grown.n_samples,
            "created": before == 0,
        }

    def _op_tail(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Last N samples of one machine's history.

        The read-your-writes check of the live-ingestion pipeline: a
        monitor agent (or operator) confirms what the service holds
        without touching the store files.  Read-only, so it shares the
        query path's lock-free access to the registry.
        """
        machine = str(_require(params, "machine"))
        n = int(params.get("n", 10))
        if n < 0:
            raise ProtocolError(f"n must be >= 0, got {n}")
        history = self.service._histories.get(machine)
        if history is None:
            raise ProtocolError(f"machine {machine!r} is not registered")
        lo = max(0, history.n_samples - n)
        times = history.start_time + history.sample_period * np.arange(
            lo, history.n_samples
        )
        return {
            "machine": machine,
            "n_samples": history.n_samples,
            "start_time": history.start_time,
            "end_time": history.end_time,
            "sample_period": history.sample_period,
            "samples": [
                {
                    "time": float(t),
                    "load": float(ld),
                    "free_mem_mb": float(fm),
                    "up": bool(u),
                }
                for t, ld, fm, u in zip(
                    times,
                    history.load[lo:],
                    history.free_mem_mb[lo:],
                    history.up[lo:],
                )
            ],
        }

    @staticmethod
    def _parse_trace(params: Mapping[str, Any]) -> MachineTrace:
        load = _require(params, "load")
        # A trace that omits memory samples is treated as memory-
        # unconstrained; 0.0 would classify every sample as
        # resource-unavailable (S4) and silently pin TR to zero.
        free_mem_mb = params.get("free_mem_mb")
        if free_mem_mb is None:
            free_mem_mb = [float("inf")] * len(load)
        return MachineTrace(
            machine_id=str(_require(params, "machine")),
            start_time=float(params.get("start_time", 0.0)),
            sample_period=float(_require(params, "sample_period")),
            load=load,
            free_mem_mb=free_mem_mb,
            up=params.get("up"),
        )

    def _op_quality(self, params: Mapping[str, Any]) -> dict[str, Any]:
        if self.audit is None:
            return {"enabled": False}
        machine = params.get("machine")
        return self.audit.quality(machine=None if machine is None else str(machine))

    def _op_health(self, params: Mapping[str, Any]) -> dict[str, Any]:
        health = {
            "status": "draining" if self.closing else "ok",
            "protocol_version": PROTOCOL_VERSION,
            "machines": len(self.service),
            "queue_depth": self.admitted,
            "queue_limit": self.config.queue_depth,
            "workers": self.config.max_workers,
            "audit": self.audit is not None,
            "sched": self.sched is not None,
            "uptime_seconds": time.monotonic() - self._started,
        }
        if self.adapt is not None:
            health["adapt"] = True
        return health

    # -- scheduling ops -------------------------------------------------- #

    def _require_sched(self) -> Any:
        if self.sched is None:
            raise SchedulerDisabled(
                "this node runs without a JobManager (serve without scheduling); "
                "scheduling ops are unavailable"
            )
        return self.sched

    def _op_submit(self, params: Mapping[str, Any]) -> dict[str, Any]:
        sched = self._require_sched()
        job_id = str(_require(params, "job"))
        total = float(_require(params, "total_cpu_seconds"))
        interval = params.get("checkpoint_interval_s")
        return sched.submit(
            job_id,
            total_cpu_seconds=total,
            cpu=float(params.get("cpu", 1.0)),
            mem_mb=float(params.get("mem_mb", 64.0)),
            checkpoint_interval_s=None if interval is None else float(interval),
        )

    def _op_job_status(self, params: Mapping[str, Any]) -> dict[str, Any]:
        sched = self._require_sched()
        job_id = str(_require(params, "job"))
        try:
            return sched.status(job_id)
        except KeyError:
            raise ProtocolError(f"unknown job {job_id!r}") from None

    def _op_cancel(self, params: Mapping[str, Any]) -> dict[str, Any]:
        sched = self._require_sched()
        job_id = str(_require(params, "job"))
        try:
            return sched.cancel(job_id)
        except KeyError:
            raise ProtocolError(f"unknown job {job_id!r}") from None

    def _op_jobs(self, params: Mapping[str, Any]) -> dict[str, Any]:
        sched = self._require_sched()
        return {"jobs": sched.list_jobs(), "stats": sched.stats()}

    def _op_replace(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Re-place jobs off dead machines (router broadcast, internal)."""
        sched = self._require_sched()
        machines = [str(m) for m in _require(params, "machines")]
        return sched.replace(
            machines,
            reason=str(params.get("reason", "node_down")),
            restore=bool(params.get("restore", False)),
        )

    def _op_job_put(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Adopt a replicated job record (router write fan-out, internal)."""
        sched = self._require_sched()
        return sched.adopt(_require(params, "record"))

    # -- self-healing adapt ops ------------------------------------------ #

    def _require_adapt(self) -> Any:
        if self.adapt is None:
            raise AdaptDisabled(
                "this node runs without an AdaptController (serve without "
                "--adapt); adapt ops are unavailable"
            )
        return self.adapt

    def _op_adapt_status(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Adapt-tier state; answers even when the tier is disabled so
        the cluster router can scatter it to mixed fleets."""
        if self.adapt is None:
            return {"enabled": False}
        machine = params.get("machine")
        return self.adapt.status(None if machine is None else str(machine))

    def _op_adapt_retune(self, params: Mapping[str, Any]) -> dict[str, Any]:
        adapt = self._require_adapt()
        machine = str(_require(params, "machine"))
        if machine not in self.service:
            raise ProtocolError(f"machine {machine!r} is not registered")
        return adapt.retune(machine, trigger=str(params.get("trigger", "manual")))

    def _op_adapt_promote(self, params: Mapping[str, Any]) -> dict[str, Any]:
        adapt = self._require_adapt()
        machine = str(_require(params, "machine"))
        if machine not in self.service:
            raise ProtocolError(f"machine {machine!r} is not registered")
        return adapt.promote(machine, force=bool(params.get("force", False)))

    def _adapt_serve(
        self, machine: str, window: ClockWindow, dtype: DayType, tr: float
    ) -> tuple[float, str]:
        """Let the adapt tier substitute the calibrated fallback.

        A bug in the fallback path must never fail the predict the
        client is waiting on: serve the model value instead.
        """
        try:
            return self.adapt.serve_value(machine, window, dtype, tr)
        except Exception as exc:
            get_event_log().emit(
                "adapt_error", severity="error", op="serve_value",
                machine=machine, error=f"{type(exc).__name__}: {exc}",
            )
            return tr, "model"

    def _adapt_shadow(
        self,
        op: str,
        machine: str,
        window: ClockWindow,
        dtype: DayType,
        init_state: State | None,
    ) -> None:
        """Journal the challenger's shadow prediction, if one is trialing."""
        try:
            self.adapt.observe_served(
                op, machine, window, dtype, init_state=init_state
            )
        except Exception as exc:
            get_event_log().emit(
                "adapt_error", severity="error", op="shadow",
                machine=machine, error=f"{type(exc).__name__}: {exc}",
            )

    # -- audit plumbing -------------------------------------------------- #

    def _journal(
        self,
        op: str,
        machine: str,
        window: ClockWindow,
        dtype: DayType,
        probability: float,
        init_state: State | None,
    ) -> None:
        """Record one served response in the prediction audit.

        Coalesced followers share the primary's computation, so each
        distinct computation is journaled exactly once.  An audit bug
        must not fail the response the client is waiting on — it is
        reported as an event instead.
        """
        if self.audit is None:
            return
        history = self.service._histories.get(machine)
        if history is None:
            return
        try:
            with start_span("audit.journal", "audit", op=op, machine=machine):
                self.audit.record_prediction(
                    op, machine, window, dtype, probability,
                    history_end=history.end_time, init_state=init_state,
                )
        except Exception as exc:
            get_event_log().emit(
                "audit_error", severity="error", op=op,
                machine=machine, error=f"{type(exc).__name__}: {exc}",
            )

    def _observe_ingest(self, machine: str, history: MachineTrace) -> None:
        if self.audit is None:
            return
        try:
            resolutions = self.audit.observe_ingest(machine, history)
        except Exception as exc:
            get_event_log().emit(
                "audit_error", severity="error", op="resolve",
                machine=machine, error=f"{type(exc).__name__}: {exc}",
            )
            return
        if self.adapt is None:
            return
        try:
            # Resolutions feed the champion/challenger trial and — via
            # the drift detector's per-machine alarms — auto-retunes.
            self.adapt.on_ingest(machine, history, resolutions)
        except Exception as exc:
            get_event_log().emit(
                "adapt_error", severity="error", op="on_ingest",
                machine=machine, error=f"{type(exc).__name__}: {exc}",
            )
