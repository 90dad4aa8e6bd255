"""Per-layer metrics of a traced run (``--trace 1``).

Three sources, named in ``design.json`` for every metric:

* **spans** the servers already record (``--trace-out``) for the traced
  half of the run: dispatch queue wait and compute, ``predict.query``,
  ``audit.journal``, ``fleet.scan``, ``store.append``/``store.fsync`` and
  the ``router.*`` spans;
* **counters** from each serving process's ``--metrics-out`` snapshot,
  written on SIGTERM drain: cache hits, coalescing, shedding, fleet row
  reuse, store appends, audit resolutions, router failovers;
* **in-process timings** of each layer's public functions, called from
  this file on the run's own inputs after the servers stopped: wire
  decode/encode, ``IncrementalPredictor.kernel``,
  ``StateClassifier.classify_window``, ``kernel_from_observations``,
  ``temporal_reliability``, ``solve_fleet`` and
  ``PredictionAudit.observe_ingest``.

A layer a workload never reaches reports 0.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from repro.audit import AuditConfig, PredictionAudit
from repro.core import windows as win
from repro.core.smp import kernel_from_observations, temporal_reliability
from repro.core.windows import AbsoluteWindow, ClockWindow, DayType
from repro.fleet.kernel import FleetKernel, solve_fleet
from repro.serve.protocol import Request, Response
from repro.service import AvailabilityService

from stats import median, pct, ratio
from workloads import Req, Testbed, Workload

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("serve.protocol.decode_us.p50", "us"),
    ("serve.protocol.encode_us.p50", "us"),
    ("serve.protocol.encode_us.p99", "us"),
    ("serve.protocol.response_bytes.p50", "bytes"),
    ("serve.server.outside_dispatch_ms.p50", "ms"),
    ("serve.server.outside_dispatch_ms.p99", "ms"),
    ("serve.dispatch.queue_wait_ms.p50", "ms"),
    ("serve.dispatch.queue_wait_ms.p99", "ms"),
    ("serve.dispatch.compute_ms.p50", "ms"),
    ("serve.dispatch.compute_ms.p99", "ms"),
    ("serve.dispatch.coalesced_ratio", "ratio"),
    ("serve.dispatch.shed_ratio", "ratio"),
    ("core.online.day_hit_ratio", "ratio"),
    ("core.online.days_classified", "count"),
    ("core.online.warm_request_share", "ratio"),
    ("core.online.kernel_ms.p50", "ms"),
    ("core.online.kernel_ms.p99", "ms"),
    ("core.classifier.classify_window_us.p50", "us"),
    ("core.smp.kernel_from_observations_ms.p50", "ms"),
    ("core.smp.temporal_reliability_us.p50", "us"),
    ("fleet.predictor.scan_ms.p50", "ms"),
    ("fleet.predictor.scan_ms.p99", "ms"),
    ("fleet.predictor.warm_scan_share", "ratio"),
    ("fleet.kernel.solve_fleet_ms.p50", "ms"),
    ("fleet.row_reuse_ratio", "ratio"),
    ("store.append_ms.p50", "ms"),
    ("store.append_ms.p99", "ms"),
    ("store.fsync_ms.p99", "ms"),
    ("store.appends", "count"),
    ("audit.record_prediction_us.p50", "us"),
    ("audit.record_prediction_us.p99", "us"),
    ("audit.observe_ingest_ms.p50", "ms"),
    ("audit.observe_ingest_ms.p99", "ms"),
    ("audit.resolutions", "count"),
    ("cluster.router.hop_ms.p50", "ms"),
    ("cluster.router.hop_ms.p99", "ms"),
    ("cluster.router.scatter_ms.p50", "ms"),
    ("cluster.router.quorum_wait_ms.p99", "ms"),
    ("cluster.router.failovers", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.repeat_key_share", "ratio"),
    ("loadgen.read_samples", "count"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_ms", "ms"),
)

#: Bounds on in-process probe sizes, so a traced run stays short.
_MAX_CODEC = 600
_MAX_KERNEL_LOOKUPS = 1500
_MAX_KEYS = 150
_MAX_SOLVE_WINDOWS = 2


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _spread(items: list, limit: int) -> list:
    """At most ``limit`` items, evenly spaced over the whole run."""
    if len(items) <= limit:
        return items
    step = len(items) / limit
    return [items[int(i * step)] for i in range(limit)]


# ---------------------------------------------------------------------- #
# server-side outputs
# ---------------------------------------------------------------------- #


def load_spans(files: list[Path]) -> list[dict]:
    spans = []
    for path in files:
        for line in path.read_text().splitlines():
            if line.strip():
                spans.append(json.loads(line))
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part its children cover (seconds)."""
    children: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        if s.get("parent_id"):
            children[s["parent_id"]].append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["start"] + s["duration_s"]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(s["span_id"], ()), key=lambda c: c["start"]):
            lo = max(cursor, c["start"])
            hi = min(end, c["start"] + c["duration_s"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["span_id"]] = max(0.0, s["duration_s"] - covered)
    return out


def counters(files: list[Path]) -> dict[str, float]:
    """Counter totals (all label series, all processes) from snapshots."""
    totals: dict[str, float] = defaultdict(float)
    for path in files:
        for metric in json.loads(path.read_text())["metrics"]:
            if metric["kind"] == "counter":
                totals[metric["name"]] += sum(s["value"] for s in metric["series"])
    return totals


# ---------------------------------------------------------------------- #
# in-process layer probes
# ---------------------------------------------------------------------- #


def _window(params: dict) -> tuple[ClockWindow, DayType]:
    clock = ClockWindow.from_hours(float(params["start_hour"]), float(params["hours"]))
    return clock, DayType(params.get("day_type", "weekday"))


def _scope(req: Req, bed: Testbed) -> list[str]:
    return [req.machine] if req.machine is not None else bed.ids


def codec(reqs: list[Req]) -> dict[str, object]:
    """Request.decode / Response.encode timings on the run's own lines."""
    answered = [r for r in reqs if r.response is not None]
    decode_us, encode_us = [], []
    per_op: dict[str, list[float]] = defaultdict(list)
    for r in _spread(answered, _MAX_CODEC):
        line = r.encode()
        d = _timed(lambda: Request.decode(line)) * 1e6
        resp = Response.from_wire(json.loads(r.raw))
        e = _timed(resp.encode) * 1e6
        decode_us.append(d)
        encode_us.append(e)
        per_op[r.op].append(d + e)
    return {
        "decode_us": decode_us,
        "encode_us": encode_us,
        "bytes": [len(r.raw) for r in answered],
        "per_op_ms": {op: median(v) / 1e3 for op, v in per_op.items()},
    }


def core_probes(bed: Testbed, reads: list[Req]) -> dict[str, list[float]]:
    """Replay the run's kernel lookups through a predictor of the server's size."""
    svc = AvailabilityService()
    for m in bed.ids:
        svc.register(bed.base[m])
    lookups = []
    for r in reads:
        clock, dtype = _window(r.params)
        for m in _scope(r, bed)[:3]:
            lookups.append((m, clock, dtype))
    kernel_ms = []
    for m, clock, dtype in lookups[:_MAX_KERNEL_LOOKUPS]:
        predictor = svc.predictor_for(m)
        kernel_ms.append(
            _timed(lambda: predictor.kernel(bed.base[m], clock, dtype)) * 1e3
        )
    classify_us, kfo_ms, tr_us = [], [], []
    seen = set()
    for m, clock, dtype in lookups:
        if len(seen) >= _MAX_KEYS:
            break
        if (m, clock, dtype) in seen:
            continue
        seen.add((m, clock, dtype))
        trace = bed.base[m]
        predictor = svc.predictor_for(m)
        est = predictor.estimator
        days = est.history_days(trace, clock, dtype)
        if not days:
            continue
        target = clock.on_day(days[0])
        lb = min(clock.duration, max(0.0, target.start - trace.start_time))
        view = trace.window_view(AbsoluteWindow(target.start - lb, target.duration + lb))
        classify_us.append(_timed(lambda: est.classifier.classify_window(view)) * 1e6)
        obs = est.observations(trace, clock, dtype)
        step = est.step(trace)
        horizon = win.n_steps(clock.duration, step)
        cfg = predictor.config
        box = {}

        def build() -> None:
            box["k"] = kernel_from_observations(
                obs, horizon, step, censoring=cfg.censoring, laplace=cfg.laplace
            )

        kfo_ms.append(_timed(build) * 1e3)
        init = predictor.typical_initial_state(trace, clock, dtype)
        tr_us.append(_timed(lambda: temporal_reliability(box["k"], init)) * 1e6)
    solve_ms = []
    fleet_reads = [r for r in reads if r.op == "fleet_scan"]
    windows: list[tuple] = []
    for r in fleet_reads:
        key = (r.params["start_hour"], r.params["hours"])
        if key not in windows and len(windows) < _MAX_SOLVE_WINDOWS:
            windows.append(key)
    for key in windows:
        clock, dtype = _window({"start_hour": key[0], "hours": key[1]})
        rows = {
            m: (
                svc.predictor_for(m).kernel(bed.base[m], clock, dtype),
                int(svc.predictor_for(m).typical_initial_state(bed.base[m], clock, dtype)),
            )
            for m in bed.ids
        }
        fleet = FleetKernel(bed.ids, [rows[m][0] for m in bed.ids])
        inits = [rows[m][1] for m in bed.ids]
        for _ in _spread([r for r in fleet_reads
                          if (r.params["start_hour"], r.params["hours"]) == key], 40):
            solve_ms.append(_timed(lambda: solve_fleet(fleet, inits)) * 1e3)
    return {
        "kernel_ms": kernel_ms,
        "classify_us": classify_us,
        "kfo_ms": kfo_ms,
        "tr_us": tr_us,
        "solve_ms": solve_ms,
    }


def audit_probe(w: Workload, bed: Testbed, reqs: list[Req], work: Path) -> list[float]:
    """Replay journaled predicts and extends through a PredictionAudit."""
    fsync = "always" if (w.store or w.cluster) else "interval"
    audit = PredictionAudit(
        AuditConfig(node_id="probe", directory=work / "probe-audit", fsync=fsync),
        step_multiple=10,
    )
    hist = dict(bed.base)
    chunks = {m: 0 for m in bed.ids}
    out = []
    try:
        for r in sorted(reqs, key=lambda r: r.sent):
            if r.response is None or not r.response.ok:
                continue
            if r.op == "predict":
                clock, dtype = _window(r.params)
                audit.record_prediction(
                    "predict", r.machine, clock, dtype, float(r.response.result["tr"]),
                    history_end=hist[r.machine].end_time,
                )
            elif r.op == "extend":
                m = r.machine
                hist[m] = hist[m].concat(bed.chunks[m][chunks[m]])
                chunks[m] += 1
                grown = hist[m]
                out.append(_timed(lambda: audit.observe_ingest(m, grown)) * 1e3)
    finally:
        audit.close()
    return out


# ---------------------------------------------------------------------- #


def per_layer(w: Workload, bed: Testbed, dep, schedules: list[list[Req]],
              reqs: list[Req], failed: set[str]) -> dict[str, tuple[float, str]]:
    plain, traced = schedules[-2], schedules[-1]

    def ok(r: Req) -> bool:
        return r.id not in failed and r.response is not None

    def lat(r: Req) -> float:
        return (r.recv - r.due) * 1e3

    open_reqs = [r for r in plain + traced if ok(r)]
    plain_reads = [r for r in plain if r.is_read and ok(r)]
    traced_reads = [r for r in traced if r.is_read and ok(r)]
    spans = load_spans(dep.span_files())
    by_name: dict[str, list[dict]] = defaultdict(list)
    by_trace: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        by_trace[s["trace_id"]].append(s)

    def span_ms(name: str) -> list[float]:
        return [s["duration_s"] * 1e3 for s in by_name.get(name, ())]

    c = counters(dep.snapshot_files())
    cod = codec(reqs)
    core = core_probes(bed, [r for r in reqs if r.is_read and r.mirror_of is None])
    observe_ms = audit_probe(w, bed, reqs, dep.work)

    outside = [
        (r.recv - r.sent) * 1e3 - float(r.response.elapsed_ms)
        for r in open_reqs if r.response.elapsed_ms is not None
    ]
    hop = [
        (r.recv - r.sent - (r.mirror.recv - r.mirror.sent)) * 1e3
        for r in open_reqs
        if r.mirror is not None and r.repeat and ok(r.mirror)
    ]
    queries = by_name.get("predict.query", [])
    warm = [q for q in queries if q.get("attrs", {}).get("cache_misses", 1) == 0]

    # Unattributed: end-to-end minus loadgen lag, span self-times and the
    # wire codec (paid once per process hop) of each traced request.
    selfs = self_times(spans)
    hops = 2 if w.cluster else 1
    unattributed = []
    for r in traced_reads:
        trace_spans = by_trace.get(r.trace["trace_id"], [])
        covered = sum(selfs[s["span_id"]] for s in trace_spans)
        codec_ms = cod["per_op_ms"].get(r.op, 0.0) * hops
        unattributed.append(lat(r) - (r.sent - r.due) * 1e3 - covered * 1e3 - codec_ms)

    measured_reads = plain_reads + traced_reads
    admitted = c["serve_requests_total"]
    values = {
        "serve.protocol.decode_us.p50": median(cod["decode_us"]),
        "serve.protocol.encode_us.p50": median(cod["encode_us"]),
        "serve.protocol.encode_us.p99": pct(cod["encode_us"], 99),
        "serve.protocol.response_bytes.p50": median(cod["bytes"]),
        "serve.server.outside_dispatch_ms.p50": median(outside),
        "serve.server.outside_dispatch_ms.p99": pct(outside, 99),
        "serve.dispatch.queue_wait_ms.p50": median(span_ms("dispatch.queue_wait")),
        "serve.dispatch.queue_wait_ms.p99": pct(span_ms("dispatch.queue_wait"), 99),
        "serve.dispatch.compute_ms.p50": median(span_ms("dispatch.compute")),
        "serve.dispatch.compute_ms.p99": pct(span_ms("dispatch.compute"), 99),
        "serve.dispatch.coalesced_ratio": ratio(c["serve_coalesced_requests_total"], admitted),
        "serve.dispatch.shed_ratio": ratio(c["serve_shed_total"], admitted),
        "core.online.day_hit_ratio": ratio(
            c["incremental_cache_hits_total"],
            c["incremental_cache_hits_total"] + c["incremental_cache_misses_total"],
        ),
        "core.online.days_classified": c["incremental_days_classified_total"],
        "core.online.warm_request_share": ratio(len(warm), len(queries)),
        "core.online.kernel_ms.p50": median(core["kernel_ms"]),
        "core.online.kernel_ms.p99": pct(core["kernel_ms"], 99),
        "core.classifier.classify_window_us.p50": median(core["classify_us"]),
        "core.smp.kernel_from_observations_ms.p50": median(core["kfo_ms"]),
        "core.smp.temporal_reliability_us.p50": median(core["tr_us"]),
        "fleet.predictor.scan_ms.p50": median(span_ms("fleet.scan")),
        "fleet.predictor.scan_ms.p99": pct(span_ms("fleet.scan"), 99),
        "fleet.predictor.warm_scan_share": ratio(
            sum(1 for s in by_name.get("fleet.scan", ())
                if s.get("attrs", {}).get("rebuilt", 1) == 0),
            len(by_name.get("fleet.scan", ())),
        ),
        "fleet.kernel.solve_fleet_ms.p50": median(core["solve_ms"]),
        "fleet.row_reuse_ratio": ratio(
            c["fleet_kernels_reused_total"],
            c["fleet_kernels_reused_total"] + c["fleet_kernels_rebuilt_total"],
        ),
        "store.append_ms.p50": median(span_ms("store.append")),
        "store.append_ms.p99": pct(span_ms("store.append"), 99),
        "store.fsync_ms.p99": pct(span_ms("store.fsync"), 99),
        "store.appends": c["store_appends_total"],
        "audit.record_prediction_us.p50": median(span_ms("audit.journal")) * 1e3,
        "audit.record_prediction_us.p99": pct(span_ms("audit.journal"), 99) * 1e3,
        "audit.observe_ingest_ms.p50": median(observe_ms),
        "audit.observe_ingest_ms.p99": pct(observe_ms, 99),
        "audit.resolutions": c["audit_resolutions_total"],
        "cluster.router.hop_ms.p50": median(hop),
        "cluster.router.hop_ms.p99": pct(hop, 99),
        "cluster.router.scatter_ms.p50": median(span_ms("router.scatter")),
        "cluster.router.quorum_wait_ms.p99": pct(span_ms("router.quorum_wait"), 99),
        "cluster.router.failovers": c["cluster_failovers_total"],
        "loadgen.lag_p99_ms": pct([(r.sent - r.due) * 1e3 for r in open_reqs], 99),
        "loadgen.repeat_key_share": ratio(
            sum(1 for r in measured_reads if r.repeat), len(measured_reads)
        ),
        "loadgen.read_samples": float(len(measured_reads)),
        "unattributed_ms": median(unattributed),
        "trace_overhead_ms": median(map(lat, traced_reads)) - median(map(lat, plain_reads)),
    }
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}
