"""Command-line driver: regenerate any paper table/figure from a terminal.

Usage::

    repro-fgcs list                         # show the experiment registry
    repro-fgcs run fig5                     # one experiment, quick scale
    repro-fgcs run fig7 --scale full        # paper-scale run
    repro-fgcs run all --out results/       # everything, tables to CSV
    repro-fgcs synthesize --machines 8 --days 90 --out traces/
    repro-fgcs predict --trace traces/lab-00.npz --start-hour 8 --hours 5
    repro-fgcs serve --traces traces/ --port 7061
    repro-fgcs query predict --port 7061 --machine lab-00 --start-hour 8 --hours 5
    repro-fgcs store init store/            # create a durable trace store
    repro-fgcs store ingest store/ --traces traces/
    repro-fgcs serve --store store/         # warm-start, persist registrations
    repro-fgcs query extend --port 7061 --trace chunk.npz --retries 3
    repro-fgcs store stat store/            # per-machine WAL/snapshot accounting
    repro-fgcs cluster start --nodes 3 --replicas 2 --data cluster/
    repro-fgcs cluster status --spec cluster/cluster.json
    repro-fgcs query predict --cluster cluster/cluster.json --machine lab-00
    repro-fgcs query health --port-file /tmp/serve-port
    repro-fgcs cluster stop --spec cluster/cluster.json
    repro-fgcs serve --store store/ --audit --audit-dir audit/
    repro-fgcs audit report --port 7061     # Brier/ECE scoreboard + drift
    repro-fgcs audit watch --port 7061 --interval 5
    repro-fgcs audit resolve --journal audit/ --store store/
    repro-fgcs obs --format prometheus      # dump the metrics snapshot
    repro-fgcs serve --trace-out spans.jsonl --metrics-out metrics.json
    repro-fgcs query predict --port 7061 --machine lab-00 --traced
    repro-fgcs trace spans.jsonl .repro-trace.jsonl   # span trees + critical path
    repro-fgcs run serving --bench-out bench/         # BENCH_serving.json
    repro-fgcs serve --store store/ --sched-dir sched/
    repro-fgcs sched submit --port 7061 --job j1 --cpu-seconds 3600
    repro-fgcs sched status --port 7061               # the whole job table
    repro-fgcs sched watch --cluster cluster/cluster.json
    repro-fgcs sched drain lab-00 --port 7061         # checkpoint-migrate away
    repro-fgcs ingest agent --port 7061 --duration 60 # monitor THIS host live
    repro-fgcs ingest agent --port 7061 --simulate-days 14  # synthetic, fast
    repro-fgcs ingest import spot.csv --format preempt --port 7061
    repro-fgcs ingest import fleet.csv --out traces/  # convert offline
    repro-fgcs ingest tail --port 7061 --machine $(hostname) -n 5

(Equivalently: ``python -m repro ...``.)

``run`` and ``predict`` write the process's metrics registry to a JSON
snapshot as they exit (``--metrics-out``, default ``.repro-metrics.json``
in the working directory); ``obs`` renders that snapshot as a human
table or as the Prometheus text exposition format.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

__all__ = ["main"]

#: Mirror of repro.obs.export.DEFAULT_SNAPSHOT_PATH, kept literal so
#: building the parser stays import-light.
_DEFAULT_SNAPSHOT = ".repro-metrics.json"

#: Default client-side span export of ``query --traced``.
_DEFAULT_TRACE_PATH = ".repro-trace.jsonl"


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.bench.experiments import REGISTRY

    print(f"{'id':<10} description")
    print(f"{'-' * 10} {'-' * 50}")
    for name, module in REGISTRY.items():
        lines = (module.__doc__ or "").strip().splitlines()
        desc = lines[0] if lines else "(no description)"
        print(f"{name:<10} {desc}")
    return 0


def _write_metrics(path: str) -> None:
    """Persist the full instrument catalog (plus recorded values) to disk."""
    from repro.obs import ensure_all_registered, write_snapshot

    ensure_all_registered()
    write_snapshot(path)
    print(f"[metrics snapshot written to {path}]")


def _cmd_run(args: argparse.Namespace) -> int:
    import traceback

    from repro.bench.experiments import REGISTRY
    from repro.bench.harness import run_instrumented

    names = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: all, {', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    failed: list[str] = []
    for name in names:
        t0 = time.perf_counter()
        try:
            result = run_instrumented(name, REGISTRY[name], args.scale, seed=args.seed)
        except Exception:
            # run_instrumented already counted the failure and emitted the
            # experiment_failed event; report and keep going so one broken
            # experiment does not hide the others' results.
            print(f"[{name} FAILED]", file=sys.stderr)
            traceback.print_exc()
            failed.append(name)
            continue
        result.print()
        print(f"\n[{name} finished in {time.perf_counter() - t0:.1f} s]\n")
        if args.out:
            out = Path(args.out)
            for i, table in enumerate(result.tables):
                slug = table.title.lower().replace(" ", "_").replace(":", "")[:60]
                table.to_csv(out / f"{name}_{i}_{slug}.csv")
            print(f"[tables written to {out}/]")
        if args.bench_out and result.bench:
            from repro.bench.snapshots import write_bench_snapshot

            bench = dict(result.bench)
            gate_keys = bench.pop("gate_keys", None)
            snap = write_bench_snapshot(
                args.bench_out, name, bench, scale=args.scale, gate_keys=gate_keys
            )
            print(f"[bench snapshot written to {snap}]")
    _write_metrics(args.metrics_out)
    if failed:
        print(f"failed experiment(s): {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.traces.io import save_traceset
    from repro.traces.profiles import PROFILES
    from repro.traces.synthesis import synthesize_testbed

    if args.profile not in PROFILES:
        print(f"unknown profile {args.profile!r}; known: {', '.join(PROFILES)}",
              file=sys.stderr)
        return 2
    testbed = synthesize_testbed(
        args.machines,
        n_days=args.days,
        sample_period=args.period,
        seed=args.seed,
        profile=PROFILES[args.profile](),
    )
    path = save_traceset(testbed, args.out)
    total = sum(t.n_samples for t in testbed)
    print(f"wrote {len(testbed)} machine traces ({total} samples) to {path}/")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core import ClockWindow, DayType, TemporalReliabilityPredictor
    from repro.core.estimator import EstimatorConfig
    from repro.traces.io import load_trace_npz

    trace = load_trace_npz(args.trace)
    predictor = TemporalReliabilityPredictor(
        trace, estimator_config=EstimatorConfig(step_multiple=args.step_multiple)
    )
    window = ClockWindow.from_hours(args.start_hour, args.hours)
    dtype = DayType.WEEKEND if args.weekend else DayType.WEEKDAY
    res = predictor.predict_detailed(window, dtype)
    print(f"machine:    {trace.machine_id} ({trace.n_days} days of history)")
    print(f"window:     {args.start_hour:05.2f}h + {args.hours:g}h on {dtype.value}s")
    print(f"TR:         {res.tr:.4f}")
    print(f"init state: {res.init_state.name} ({res.init_state.describe()})")
    print(
        f"based on:   {res.n_history_days} history days, {res.n_observations} sojourns, "
        f"horizon {res.horizon} x {res.step:g}s"
    )
    print(f"cost:       {res.total_seconds * 1000:.1f} ms "
          f"(estimation {res.estimation_seconds * 1000:.1f} ms)")
    _write_metrics(args.metrics_out)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve.dispatch import DispatchConfig
    from repro.serve.server import ServeServer
    from repro.service import AvailabilityService

    if args.trace_out:
        from repro.obs import get_recorder

        get_recorder().open_sink(args.trace_out)
        print(f"[tracing to {args.trace_out}]", flush=True)
    store = None
    if args.store:
        from repro.store import StoreConfig, TraceStore

        store = TraceStore(args.store, StoreConfig(fsync=args.fsync))
        service = AvailabilityService.warm_start(
            store, max_cache_entries=args.cache_entries
        )
        rec = store.last_recovery
        print(
            f"[recovered {rec.machines} machines from {args.store} "
            f"({rec.samples_from_snapshots} snapshot + {rec.samples_replayed} "
            f"replayed samples, {rec.truncated_bytes} torn bytes truncated, "
            f"{rec.duration_s * 1000:.0f} ms)]",
            flush=True,
        )
    else:
        service = AvailabilityService(max_cache_entries=args.cache_entries)
    if args.traces:
        from repro.traces.io import load_traceset

        for trace in load_traceset(args.traces):
            service.register(trace)
        print(f"[loaded {len(service)} machine histories from {args.traces}]",
              flush=True)
    audit = None
    if args.audit or args.audit_dir:
        from repro.audit import AuditConfig, PredictionAudit

        audit = PredictionAudit(
            AuditConfig(
                node_id=args.node_id,
                directory=args.audit_dir,
                fsync=args.fsync,
            ),
            classifier=service.classifier,
            step_multiple=service.config.step_multiple,
        )
        where = f"durable at {args.audit_dir}" if args.audit_dir else "memory-only"
        print(
            f"[audit on ({where}): {audit.journal.n_predictions} predictions "
            f"recovered, {audit.n_pending} pending]",
            flush=True,
        )
    adapt = None
    if args.adapt:
        from repro.adapt import AdaptController

        if audit is None:
            # The adapt tier scores challengers through the audit
            # journal, so --adapt without audit flags implies a
            # memory-only audit.
            from repro.audit import AuditConfig, PredictionAudit

            audit = PredictionAudit(
                AuditConfig(node_id=args.node_id),
                classifier=service.classifier,
                step_multiple=service.config.step_multiple,
            )
            print("[audit on (memory-only, implied by --adapt)]", flush=True)
        adapt = AdaptController(service, audit)
        print("[adapt on: auto retune on per-machine drift alarms]", flush=True)
    from repro.sched import JobManager, SchedConfig

    sched = JobManager(
        service,
        config=SchedConfig(speedup=args.sched_speedup),
        directory=args.sched_dir,
        fsync=args.fsync,
        node=args.node_id,
    )
    if args.sched_dir:
        print(
            f"[scheduler durable at {args.sched_dir}: "
            f"{sched.recovered_jobs} jobs recovered]",
            flush=True,
        )
    config = DispatchConfig(
        max_workers=args.workers,
        queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms,
        drain_timeout_s=args.drain_timeout,
    )

    async def _serve() -> int:
        server = ServeServer(
            service, host=args.host, port=args.port, config=config, audit=audit,
            sched=sched, adapt=adapt,
        )
        await server.start()
        print(f"[serving on {args.host}:{server.port}]", flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{server.port}\n")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print("[draining...]", flush=True)
        serving.cancel()
        drained = await server.stop()
        print(f"[stopped{'' if drained else ' (drain timed out)'}]", flush=True)
        return 0 if drained else 1

    try:
        return asyncio.run(_serve())
    finally:
        sched.close()  # idempotent; the drain usually got here first
        if audit is not None:
            audit.close()  # idempotent; the drain usually got here first
        if store is not None:
            store.close()
        # Snapshots land after the drain so the final requests' samples
        # (and spans) are included.
        if args.metrics_out:
            _write_metrics(args.metrics_out)
        if args.trace_out:
            from repro.obs import get_recorder

            get_recorder().close()


def _resolve_query_target(args: argparse.Namespace) -> tuple[str, int] | None:
    """(host, port) from --port, --port-file or --cluster (exactly one)."""
    import json as _json

    given = [
        name for name, value in (
            ("--port", args.port),
            ("--port-file", args.port_file),
            ("--cluster", args.cluster),
        ) if value
    ]
    if len(given) != 1:
        print(
            "exactly one of --port, --port-file or --cluster is required"
            + (f" (got {', '.join(given)})" if given else ""),
            file=sys.stderr,
        )
        return None
    if args.port:
        return args.host, args.port
    if args.port_file:
        text = Path(args.port_file).read_text().strip()
        return args.host, int(text)
    spec = _json.loads(Path(args.cluster).read_text())
    router = spec["router"]
    return router["host"], int(router["port"])


def _unreachable_hint(args: argparse.Namespace, host: str, port: int) -> str:
    """An actionable next step when the query target refuses connections."""
    if args.port:
        return (
            f"hint: --port {port} was given explicitly; no server is listening "
            f"there on {host}. Start one with 'repro-fgcs serve --port {port}' "
            "(or 'cluster start'), or read the live port from a file with "
            "--port-file."
        )
    if args.port_file:
        return (
            f"hint: port {port} was read from --port-file {args.port_file}, "
            "which may be stale from an earlier server. Restart the server "
            "with the same --port-file, or pass the live port via --port."
        )
    return (
        f"hint: the router address came from --cluster {args.cluster}, but the "
        "cluster looks down. Check it with 'repro-fgcs cluster status --spec "
        f"{args.cluster}' or restart it with 'repro-fgcs cluster start'."
    )


def _on_target(
    args: argparse.Namespace,
    use,
    *,
    target: tuple[str, int] | None = None,
    retries: int = 0,
):
    """``(use(client), 0)`` over a fresh connection to the command's target.

    ``target`` defaults to the one the flags name.  Returns ``(None, 2)``
    when the flags do not name exactly one target, and ``(None, 1)``,
    after printing "cannot reach" and the hint, when the target refuses
    the connection or drops it mid-request.
    """
    from repro.serve.client import ServeClient

    if target is None:
        target = _resolve_query_target(args)
        if target is None:
            return None, 2
    host, port = target
    try:
        with ServeClient(
            host, port, timeout=args.connect_timeout, retries=retries
        ) as client:
            return use(client), 0
    except OSError as exc:
        print(f"cannot reach {host}:{port}: {exc}", file=sys.stderr)
        print(_unreachable_hint(args, host, port), file=sys.stderr)
        return None, 1


def _cmd_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import _trace_params
    from repro.serve.protocol import STATUS_OK

    target = _resolve_query_target(args)
    if target is None:
        return 2
    params: dict[str, object] = {}
    if args.op in ("predict", "predict_batch", "fleet_scan", "rank",
                   "select", "horizon"):
        params.update(
            start_hour=args.start_hour,
            hours=args.hours,
            day_type="weekend" if args.weekend else "weekday",
        )
    if args.op in ("predict_batch", "fleet_scan") and args.machines:
        params["machines"] = list(args.machines)
    if args.op == "fleet_scan" and args.horizons_hours:
        params["horizons_hours"] = list(args.horizons_hours)
    if args.op in ("predict", "horizon"):
        if not args.machine:
            print(f"--machine is required for op {args.op!r}", file=sys.stderr)
            return 2
        params["machine"] = args.machine
    if args.op == "select":
        params["k"] = args.k
    if args.op == "horizon":
        params["tr_threshold"] = args.tr_threshold
    if args.op in ("register", "extend"):
        if not args.trace:
            print(f"--trace is required for op {args.op!r}", file=sys.stderr)
            return 2
        from repro.traces.io import load_trace_npz

        params.update(_trace_params(load_trace_npz(args.trace)))
    if args.op in ("quality", "adapt_status") and args.machine:
        params["machine"] = args.machine
    trace_ctx = None
    if args.traced or args.trace_out:
        from repro.obs import TraceContext

        trace_ctx = TraceContext.new_root()

    def send(client):
        if trace_ctx is None:
            return client.request(args.op, params, deadline_ms=args.deadline_ms)
        from repro.obs import use_context

        with use_context(trace_ctx):
            return client.request(args.op, params, deadline_ms=args.deadline_ms)

    response, rc = _on_target(args, send, target=target, retries=args.retries)
    if response is None:
        return rc
    if trace_ctx is not None:
        from repro.obs import get_recorder

        out = args.trace_out or _DEFAULT_TRACE_PATH
        get_recorder().export(out)
        print(f"[trace {trace_ctx.trace_id}: client spans appended to {out}; "
              "merge with the server's --trace-out file via 'repro-fgcs trace']",
              file=sys.stderr)
    print(_json.dumps(response.to_wire(), indent=2))
    return 0 if response.status == STATUS_OK else 1


def _cmd_cluster_start(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.cluster import ClusterRouter, LocalCluster, RouterConfig

    data_dir = Path(args.data)
    data_dir.mkdir(parents=True, exist_ok=True)
    spec_path = Path(args.spec_file) if args.spec_file else data_dir / "cluster.json"
    if args.trace_out:
        # Router spans go to --trace-out; each backend gets its own sink
        # under DATA/node-*/trace.jsonl.  'repro-fgcs trace' merges them.
        from repro.obs import get_recorder

        get_recorder().open_sink(args.trace_out)
        print(f"[router tracing to {args.trace_out}; "
              f"nodes trace under {data_dir}/node-*/trace.jsonl]", flush=True)
    cluster = LocalCluster(
        data_dir,
        args.nodes,
        host=args.host,
        fsync=args.fsync,
        workers=args.workers,
        queue_depth=args.queue_depth,
        supervise=not args.no_supervise,
        audit=args.audit,
        trace=bool(args.trace_out),
        metrics=bool(args.metrics_out),
        sched=args.sched,
        sched_speedup=args.sched_speedup,
    )
    config = RouterConfig(
        replicas=args.replicas,
        vnodes=args.vnodes,
        probe_interval_s=args.probe_interval,
    )

    async def _run() -> int:
        from repro.serve.client import AsyncServeClient

        router = ClusterRouter(
            cluster.addresses, host=args.host, port=args.port, config=config
        )
        await router.start()
        print(
            f"[cluster router on {args.host}:{router.port}; "
            f"{args.nodes} nodes, R={args.replicas}, "
            f"write quorum {config.write_quorum}]",
            flush=True,
        )
        cluster.write_spec(spec_path, args.host, router.port)
        print(f"[cluster spec written to {spec_path}]", flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{router.port}\n")
        if args.traces:
            from repro.traces.io import load_traceset

            client = await AsyncServeClient.connect(
                args.host, router.port, retries=5
            )
            try:
                total = 0
                for trace in load_traceset(args.traces):
                    await client.register(trace)
                    total += trace.n_samples
            finally:
                await client.close()
            print(
                f"[registered {args.traces} through the router "
                f"({total} samples, quorum-replicated)]",
                flush=True,
            )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        serving = asyncio.ensure_future(router.serve_forever())
        await stop.wait()
        print("[stopping cluster...]", flush=True)
        serving.cancel()
        await router.stop()
        return 0

    try:
        cluster.start()
        print(
            f"[{args.nodes} backend nodes up: "
            + ", ".join(f"{nid}@{host}:{port}"
                        for nid, (host, port) in cluster.addresses.items())
            + "]",
            flush=True,
        )
        return asyncio.run(_run())
    finally:
        cluster.stop()
        if args.metrics_out:
            _write_metrics(args.metrics_out)
        if args.trace_out:
            from repro.obs import get_recorder

            get_recorder().close()
        print("[cluster stopped]", flush=True)


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import ServeClient

    if args.spec:
        spec = _json.loads(Path(args.spec).read_text())
        host, port = spec["router"]["host"], int(spec["router"]["port"])
    elif args.port:
        host, port = args.host, args.port
    else:
        print("either --spec or --port is required", file=sys.stderr)
        return 2
    try:
        with ServeClient(host, port, timeout=args.connect_timeout) as client:
            health = client.health()
    except OSError as exc:
        print(f"router at {host}:{port} is unreachable: {exc}", file=sys.stderr)
        return 1
    ring = health.get("ring", {})
    print(
        f"cluster status: {health['status']} "
        f"({health.get('up_nodes', '?')}/{ring.get('nodes', '?')} nodes up, "
        f"R={ring.get('replicas', '?')}, "
        f"write quorum {ring.get('write_quorum', '?')})"
    )
    header = f"{'node':<12} {'address':<22} {'state':<6} {'machines':>8} {'queue':>6}"
    print(header)
    print("-" * len(header))
    for node_id, st in sorted(health.get("nodes", {}).items()):
        machines = st.get("machines")
        queue = st.get("queue_depth")
        print(
            f"{node_id:<12} {st['address']:<22} {st['state']:<6} "
            f"{'-' if machines is None else machines:>8} "
            f"{'-' if queue is None else queue:>6}"
        )
    return 0 if health["status"] != "down" else 1


def _cmd_cluster_stop(args: argparse.Namespace) -> int:
    import json as _json
    import os
    import signal

    spec = _json.loads(Path(args.spec).read_text())
    pid = int(spec["pid"])
    try:
        os.kill(pid, signal.SIGTERM)
    except ProcessLookupError:
        print(f"cluster process {pid} is already gone")
        return 0
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            print(f"cluster process {pid} stopped")
            return 0
        time.sleep(0.1)
    print(f"cluster process {pid} did not stop within {args.timeout}s",
          file=sys.stderr)
    return 1


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import StoreConfig, TraceStore

    with TraceStore(args.dir, StoreConfig(fsync=args.fsync)) as store:
        rec = store.last_recovery
        if args.store_op == "init":
            print(f"initialised trace store at {args.dir} "
                  f"({rec.machines} machines recovered)")
            return 0
        if args.store_op == "ingest":
            if not args.traces:
                print("--traces is required for 'store ingest'", file=sys.stderr)
                return 2
            from repro.traces.io import load_traceset

            total = 0
            for trace in load_traceset(args.traces):
                store.replace(trace)
                total += trace.n_samples
                print(f"  {trace.machine_id}: {trace.n_samples} samples")
            print(f"ingested {len(store)} machines ({total} samples) into {args.dir}")
            return 0
        if args.store_op == "stat":
            print(
                f"recovery: {rec.machines} machines, "
                f"{rec.samples_from_snapshots} snapshot + "
                f"{rec.samples_replayed} replayed samples "
                f"({rec.records_replayed} records, "
                f"{rec.truncated_bytes} torn bytes truncated) "
                f"in {rec.duration_s * 1000:.1f} ms"
            )
            header = (f"{'machine':<20} {'samples':>10} {'snapshot':>10} "
                      f"{'segments':>8} {'wal bytes':>12} {'snap bytes':>12}")
            print(header)
            print("-" * len(header))
            for st in store.stat():
                print(
                    f"{st.machine_id:<20} {st.n_samples:>10} "
                    f"{st.snapshot_samples:>10} {st.n_segments:>8} "
                    f"{st.wal_bytes:>12} {st.snapshot_bytes:>12}"
                )
            return 0
        if args.store_op == "compact":
            report = store.compact()
            print(
                f"compacted {report.machines} machines: "
                f"{report.segments_removed} segments removed, "
                f"{report.bytes_reclaimed} WAL bytes reclaimed"
            )
            return 0
    print(f"unknown store operation {args.store_op!r}", file=sys.stderr)
    return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    """Reconstruct span trees from exported JSONL and break down latency."""
    import json as _json

    from repro.obs.traceview import (
        build_traces,
        critical_path,
        load_spans,
        render_summary,
        render_tree,
        summarize,
    )

    spans = load_spans(args.inputs)
    if not spans:
        print(f"no spans found in: {', '.join(args.inputs)}", file=sys.stderr)
        return 1
    trees = build_traces(spans)
    if args.trace_id:
        tree = trees.get(args.trace_id)
        if tree is None:
            prefixed = [t for t in trees if t.startswith(args.trace_id)]
            if len(prefixed) == 1:
                tree = trees[prefixed[0]]
            else:
                print(f"trace {args.trace_id!r} not found "
                      f"({len(trees)} traces loaded)", file=sys.stderr)
                return 1
        trees = {tree.trace_id: tree}
    summary = summarize(trees, exemplars=args.exemplars)
    slowest = max(trees.values(), key=lambda t: t.duration_s)
    path = critical_path(slowest)
    if args.json:
        print(_json.dumps({
            "n_traces": summary.n_traces,
            "n_spans": summary.n_spans,
            "trace_p50_ms": summary.trace_p50_ms,
            "trace_p99_ms": summary.trace_p99_ms,
            "by_tier": {k: dict(v) for k, v in summary.by_tier.items()},
            "by_name": {k: dict(v) for k, v in summary.by_name.items()},
            "slowest": [{"trace_id": tid, "ms": ms} for tid, ms in summary.slowest],
            "critical_path": [
                {"name": s.name, "tier": s.tier, "ms": s.duration_s * 1e3}
                for s in path
            ],
        }, indent=2))
        return 0 if path else 1
    print(render_summary(summary))
    print()
    if args.tree or args.trace_id:
        for tree in sorted(trees.values(), key=lambda t: -t.duration_s):
            print(render_tree(tree))
            print()
    print(f"critical path of slowest trace ({slowest.trace_id}):")
    for span in path:
        print(f"  {span.name} ({span.tier})  {span.duration_s * 1e3:.2f} ms")
    if not path:
        print("  (empty)", file=sys.stderr)
        return 1
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import (
        ensure_all_registered,
        read_snapshot,
        render_prometheus,
        render_table,
    )

    path = Path(args.metrics_in)
    if path.exists():
        registry = read_snapshot(path)
    else:
        # No snapshot yet: render the instrument catalog, zero-valued, so
        # dashboards and smoke tests see the full schema either way.
        print(
            f"[no snapshot at {path}; rendering the empty instrument catalog — "
            "run 'repro-fgcs run' or 'repro-fgcs predict' first]",
            file=sys.stderr,
        )
        from repro.obs import MetricsRegistry

        registry = ensure_all_registered(MetricsRegistry())
    render = render_prometheus if args.format == "prometheus" else render_table
    print(render(registry), end="")
    return 0


def _fmt_metric(value: object, spec: str = ".4f") -> str:
    return "-" if value is None else format(value, spec)


def _print_quality(quality: dict) -> None:
    """Human rendering of a ``quality`` result (single node or merged)."""
    if not quality.get("enabled"):
        print("audit is not enabled on the target "
              "(start the server with --audit)")
        return
    if "nodes" in quality:
        origin = f"{len(quality['nodes'])} nodes: {', '.join(quality['nodes'])}"
    else:
        durable = "durable" if quality.get("durable") else "memory-only"
        origin = f"node {quality.get('node', '?')}, {durable}"
    journaled = quality.get("journaled", {})
    resolved = quality.get("resolved", {})
    drift = quality.get("drift", {})
    print(f"audit report ({origin})")
    print(
        "journaled: "
        + ", ".join(f"{op} {n}" for op, n in sorted(journaled.items()))
        + f"   pending: {quality.get('pending', 0)}"
        + "   resolved: "
        + ", ".join(f"{o} {n}" for o, n in sorted(resolved.items()))
    )
    agg = quality.get("aggregate", {})
    print(
        f"windowed brier: {_fmt_metric(agg.get('brier'))}"
        f"   binned: {_fmt_metric(agg.get('brier_binned'))}"
        f"   ece: {_fmt_metric(agg.get('ece'))}"
        f"   base rate: {_fmt_metric(agg.get('base_rate'))}"
        f"   n: {agg.get('n', 0)}"
    )
    degraded = "YES" if drift.get("degraded") else "no"
    print(f"degraded: {degraded} (alarms: {drift.get('alarms', 0)})")
    last = drift.get("last_alarm")
    if last:
        print(
            f"last alarm: {last.get('reason')} "
            f"(brier {_fmt_metric(last.get('brier'))}, "
            f"ece {_fmt_metric(last.get('ece'))})"
        )
    machines = quality.get("machines", {})
    if machines:
        header = (f"{'machine':<20} {'n':>6} {'brier':>8} {'ece':>8} "
                  f"{'base':>6} {'pending':>8}")
        print(header)
        print("-" * len(header))
        for name, snap in sorted(machines.items()):
            print(
                f"{name:<20} {snap.get('n', 0):>6} "
                f"{_fmt_metric(snap.get('brier')):>8} "
                f"{_fmt_metric(snap.get('ece')):>8} "
                f"{_fmt_metric(snap.get('base_rate'), '.2f'):>6} "
                f"{str(snap.get('pending', '-')):>8}"
            )


def _fetch(args: argparse.Namespace, target: tuple[str, int], ask) -> dict | None:
    """One report from the target, or None after printing why not."""
    from repro.serve.client import ServeRequestError

    try:
        return _on_target(args, ask, target=target)[0]
    except ServeRequestError as exc:
        # A draining/overloaded server answers, but not with a report —
        # to a watcher that is the same as the target disappearing.
        host, port = target
        print(f"server at {host}:{port} refused the request: {exc}",
              file=sys.stderr)
        print(_unreachable_hint(args, host, port), file=sys.stderr)
        return None


def _cmd_audit_report(args: argparse.Namespace) -> int:
    import json as _json

    target = _resolve_query_target(args)
    if target is None:
        return 2
    quality = _fetch(args, target, lambda c: c.quality(machine=args.machine))
    if quality is None:
        return 1
    if args.json:
        print(_json.dumps(quality, indent=2))
    else:
        _print_quality(quality)
    return 0 if quality.get("enabled") else 1


def _cmd_audit_watch(args: argparse.Namespace) -> int:
    """Poll the quality report; one summary line per tick."""
    target = _resolve_query_target(args)
    if target is None:
        return 2
    previous = None
    for tick in range(args.count):
        if tick:
            time.sleep(args.interval)
        quality = _fetch(args, target, lambda c: c.quality(machine=args.machine))
        if quality is None:
            return 1
        if not quality.get("enabled"):
            print("audit is not enabled on the target", file=sys.stderr)
            return 1
        resolved = sum(quality.get("resolved", {}).values())
        delta = "" if previous is None else f" (+{resolved - previous})"
        previous = resolved
        agg = quality.get("aggregate", {})
        drift = quality.get("drift", {})
        stamp = time.strftime("%H:%M:%S")
        print(
            f"[{stamp}] resolved {resolved}{delta}  "
            f"pending {quality.get('pending', 0)}  "
            f"brier {_fmt_metric(agg.get('brier'))}  "
            f"ece {_fmt_metric(agg.get('ece'))}  "
            f"degraded {'YES' if drift.get('degraded') else 'no'}"
            f" (alarms {drift.get('alarms', 0)})",
            flush=True,
        )
    return 0


def _cmd_audit_resolve(args: argparse.Namespace) -> int:
    """Offline: label a journal's pending predictions against a store."""
    import json as _json

    from repro.audit import AuditConfig, PredictionAudit
    from repro.service import AvailabilityService
    from repro.store import StoreConfig, TraceStore

    with TraceStore(args.store, StoreConfig(fsync="never")) as store:
        service = AvailabilityService.warm_start(store)
        audit = PredictionAudit(
            AuditConfig(directory=args.journal, fsync="always"),
            classifier=service.classifier,
            step_multiple=service.config.step_multiple,
        )
        try:
            before = audit.n_pending
            resolutions = []
            for machine, history in sorted(service._histories.items()):
                resolutions.extend(audit.observe_ingest(machine, history))
            quality = audit.quality()
        finally:
            audit.close()
    if args.json:
        print(_json.dumps(quality, indent=2))
        return 0
    print(
        f"resolved {len(resolutions)} of {before} pending predictions "
        f"against {args.store} ({quality['pending']} still pending)"
    )
    _print_quality(quality)
    return 0


def _print_adapt_status(status: dict) -> None:
    print(
        f"adapt: auto={'on' if status.get('auto') else 'off'}  "
        f"retunes {status.get('retunes', 0)}  "
        f"promotions {status.get('promotions', 0)}  "
        f"abandoned {status.get('abandoned', 0)}  "
        f"shadowing {status.get('shadowing', 0)}"
    )
    overrides = status.get("overrides") or []
    if overrides:
        print(f"overridden machines: {', '.join(overrides)}")
    machines = status.get("machines", {})
    if machines:
        header = (f"{'machine':<20} {'state':<10} {'retunes':>8} {'promo':>6} "
                  f"{'cooldown':>9} {'fallback':>9}")
        print(header)
        print("-" * len(header))
        for name, entry in sorted(machines.items()):
            print(
                f"{name:<20} {entry.get('state', '?'):<10} "
                f"{entry.get('retunes', 0):>8} "
                f"{entry.get('promotions', 0):>6} "
                f"{entry.get('cooldown', 0):>9} "
                f"{'YES' if entry.get('fallback_active') else 'no':>9}"
            )


def _cmd_adapt_status(args: argparse.Namespace) -> int:
    import json as _json

    target = _resolve_query_target(args)
    if target is None:
        return 2
    status = _fetch(args, target, lambda c: c.adapt_status(machine=args.machine))
    if status is None:
        return 1
    if args.json:
        print(_json.dumps(status, indent=2))
    else:
        if not status.get("enabled"):
            print("adapt is not enabled on the target", file=sys.stderr)
        else:
            _print_adapt_status(status)
    return 0 if status.get("enabled") else 1


def _cmd_adapt_watch(args: argparse.Namespace) -> int:
    """Poll the adapt tier; one summary line per tick."""
    target = _resolve_query_target(args)
    if target is None:
        return 2
    for tick in range(args.count):
        if tick:
            time.sleep(args.interval)
        status = _fetch(args, target, lambda c: c.adapt_status(machine=args.machine))
        if status is None:
            return 1
        if not status.get("enabled"):
            print("adapt is not enabled on the target", file=sys.stderr)
            return 1
        stamp = time.strftime("%H:%M:%S")
        machines = status.get("machines", {})
        fallback = sum(1 for e in machines.values() if e.get("fallback_active"))
        print(
            f"[{stamp}] retunes {status.get('retunes', 0)}  "
            f"promotions {status.get('promotions', 0)}  "
            f"abandoned {status.get('abandoned', 0)}  "
            f"shadowing {status.get('shadowing', 0)}  "
            f"fallback {fallback}  "
            f"overrides {len(status.get('overrides') or [])}",
            flush=True,
        )
    return 0


def _cmd_adapt_retune(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import ServeRequestError

    try:
        summary, rc = _on_target(args, lambda c: c.adapt_retune(args.machine))
    except ServeRequestError as exc:
        print(f"retune failed: {exc}", file=sys.stderr)
        return 1
    if summary is None:
        return rc
    if args.json:
        print(_json.dumps(summary, indent=2))
        return 0
    best = summary.get("best") or {}
    champ = summary.get("champion") or {}
    print(
        f"machine {summary.get('machine')}: scored "
        f"{len(summary.get('candidates', []))} candidates over "
        f"{summary.get('holdout_days')} holdout days"
    )
    print(
        f"champion brier {champ.get('brier')}  best brier {best.get('brier')}  "
        f"improvement {summary.get('improvement')}"
    )
    if summary.get("trial_opened"):
        print(f"trial opened for challenger {best.get('candidate')}")
    else:
        print("no trial opened (champion holds, or a trial is already running)")
    return 0


def _cmd_adapt_promote(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import ServeRequestError

    try:
        result, rc = _on_target(
            args, lambda c: c.adapt_promote(args.machine, force=args.force)
        )
    except ServeRequestError as exc:
        print(f"promote failed: {exc}", file=sys.stderr)
        return 1
    if result is None:
        return rc
    if args.json:
        print(_json.dumps(result, indent=2))
        return 0 if result.get("promoted") else 1
    if result.get("promoted"):
        print(
            f"machine {result.get('machine')}: promoted challenger "
            f"{result.get('challenger')}"
            + (" (forced)" if result.get("forced") else "")
        )
        return 0
    print(
        f"machine {result.get('machine')}: not promoted — "
        f"{result.get('reason')}",
        file=sys.stderr,
    )
    return 1


def _print_job(job: dict) -> None:
    state = job.get("state", "?")
    progress = job.get("progress_seconds")
    if progress is None:
        # the job table carries raw records; only 'status --job' computes
        # live progress, so fall back to what the record itself implies
        progress = (
            job.get("total_cpu_seconds", 0.0) if state == "completed"
            else job.get("carried_seconds", 0.0)
        )
    line = (
        f"{job.get('job', '?'):<20} {state:<10} "
        f"machine {job.get('machine') or '-':<12} "
        f"progress {progress:>10.1f}"
        f"/{job.get('total_cpu_seconds', 0.0):<10.1f} "
        f"attempts {len(job.get('attempts', ()))}"
    )
    if job.get("wasted_cpu_seconds"):
        line += f" wasted {job['wasted_cpu_seconds']:.1f}"
    if job.get("note"):
        line += f"  ({job['note']})"
    print(line)


def _cmd_sched_submit(args: argparse.Namespace) -> int:
    import json as _json

    result, rc = _on_target(
        args,
        lambda client: client.submit(
            args.job,
            args.cpu_seconds,
            cpu=args.cpu,
            mem_mb=args.mem_mb,
            checkpoint_interval_s=args.checkpoint_interval,
        ),
    )
    if result is None:
        return rc
    print(_json.dumps(result, indent=2))
    record = result.get("record", {})
    return 0 if record.get("state") not in (None, "failed") else 1


def _cmd_sched_status(args: argparse.Namespace) -> int:
    import json as _json

    result, rc = _on_target(
        args,
        lambda client: client.job_status(args.job) if args.job else client.jobs(),
    )
    if result is None:
        return rc
    if args.job:
        if args.json:
            print(_json.dumps(result, indent=2))
        else:
            _print_job(result)
        return 0
    if args.json:
        print(_json.dumps(result, indent=2))
        return 0
    jobs = result.get("jobs", [])
    states = result.get("stats", {}).get("states", {})
    wasted = sum(j.get("wasted_cpu_seconds", 0.0) for j in jobs)
    print(
        "jobs: "
        + (", ".join(f"{s} {n}" for s, n in sorted(states.items())) or "none")
        + f"   wasted cpu-s {wasted:.1f}"
    )
    for job in sorted(jobs, key=lambda j: j.get("job", "")):
        _print_job(job)
    return 0


def _cmd_sched_watch(args: argparse.Namespace) -> int:
    """Poll the job list until every job is terminal (or count runs out)."""
    from repro.sched import TERMINAL_STATES

    def poll(client) -> int:
        open_jobs: list = []
        for tick in range(args.count):
            if tick:
                time.sleep(args.interval)
            result = client.jobs()
            jobs = result.get("jobs", [])
            states = result.get("stats", {}).get("states", {})
            open_jobs = [
                j for j in jobs if j.get("state") not in TERMINAL_STATES
            ]
            stamp = time.strftime("%H:%M:%S")
            print(
                f"[{stamp}] "
                + (", ".join(f"{s} {n}" for s, n in sorted(states.items()))
                   or "no jobs")
                + f"   open {len(open_jobs)}",
                flush=True,
            )
            if jobs and not open_jobs:
                print("all jobs terminal")
                return 0
        print(f"{len(open_jobs)} jobs still open after {args.count} polls",
              file=sys.stderr)
        return 1

    status, rc = _on_target(args, poll)
    return rc if status is None else status


def _cmd_sched_drain(args: argparse.Namespace) -> int:
    import json as _json

    response, rc = _on_target(
        args,
        lambda client: client.request(
            "replace", {"machines": list(args.machines), "reason": args.reason}
        ),
    )
    if response is None:
        return rc
    print(_json.dumps(response.to_wire(), indent=2))
    from repro.serve.protocol import STATUS_OK

    return 0 if response.status == STATUS_OK else 1


def _cmd_ingest_agent(args: argparse.Namespace) -> int:
    import signal

    from repro.ingest.agent import AgentConfig, MonitorAgent, SimulatedClock
    from repro.ingest.samplers import MissingDependencyError, make_sampler

    target = _resolve_query_target(args)
    if target is None:
        return 2
    sampler_kind = args.sampler
    if args.simulate_days and sampler_kind == "auto":
        # Simulated time makes a real host sampler meaningless (it would
        # read the same instant thousands of times); default to synthetic.
        sampler_kind = "synthetic"
    try:
        sampler = make_sampler(sampler_kind, seed=args.seed)
    except MissingDependencyError as exc:
        print(f"sampler {sampler_kind!r} unavailable: {exc}", file=sys.stderr)
        return 2
    config = AgentConfig(
        machine_id=args.machine,
        sample_period=args.period,
        chunk_samples=args.chunk,
        ring_capacity=args.ring,
        spill_dir=args.spill_dir,
        utc_offset_s=args.utc_offset,
    )
    if args.simulate_days:
        clock = SimulatedClock(time.time())
        tick, sleeper = clock.now, clock.sleep
        duration = args.simulate_days * 86400.0
    else:
        tick, sleeper = time.time, time.sleep
        duration = args.duration
    stopping = False

    def _stop(_sig, _frame):
        nonlocal stopping
        stopping = True

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _stop)

    def run(client):
        agent = MonitorAgent(sampler, client, config, clock=tick, sleep=sleeper)
        print(
            f"[agent {args.machine}: sampler {sampler.kind}, "
            f"period {args.period:g}s, chunk {args.chunk}, "
            f"target {target[0]}:{target[1]}"
            + (f", spill {args.spill_dir}" if args.spill_dir else "")
            + "]",
            flush=True,
        )
        produced = agent.run(
            max_samples=args.samples,
            duration_s=duration,
            stop=lambda: stopping,
        )
        return produced, agent.status()

    outcome, rc = _on_target(args, run, target=target, retries=args.retries)
    if outcome is None:
        return rc
    produced, status = outcome
    print(
        f"[agent stopped: {produced} samples generated, "
        f"{status['acked']} acked, {status['unacked']} unacked, "
        f"{status['gap_filled']} gap-filled, "
        f"{status['flush_errors']} flush errors]"
    )
    return 0 if status["unacked"] == 0 else 1


def _cmd_ingest_import(args: argparse.Namespace) -> int:
    import json as _json

    from repro.ingest.adapters import get_adapter

    try:
        convert = get_adapter(args.format)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    kwargs: dict[str, object] = {
        "sample_period": args.period,
        "machine_id": args.machine,
        "utc_offset_s": args.utc_offset,
    }
    if args.format != "preempt":
        kwargs["gap_policy"] = args.gap_policy
        if args.native_period:
            kwargs["native_period"] = args.native_period
    all_traces = []

    def import_files(client) -> int:
        for path in args.files:
            try:
                traces, stats = convert(path, **kwargs)
            except (ValueError, OSError) as exc:
                print(f"import failed: {exc}", file=sys.stderr)
                return 1
            all_traces.extend(traces)
            print(_json.dumps(stats.as_dict()))
            for trace in traces:
                if client is not None:
                    result = client.register(trace)
                    print(
                        f"  registered {trace.machine_id}: "
                        f"{result.get('n_samples', trace.n_samples)} samples"
                    )
                else:
                    print(f"  converted {trace.machine_id}: "
                          f"{trace.n_samples} samples")
        return 0

    if not args.out:
        target = _resolve_query_target(args)
        if target is None:
            print(
                "hint: give a server target to register the imported traces, "
                "or --out DIR to write them as a traceset instead",
                file=sys.stderr,
            )
            return 2
        status, rc = _on_target(args, import_files, target=target)
        return rc if status is None else status
    if import_files(None):
        return 1
    from repro.traces.io import save_traceset
    from repro.traces.trace import TraceSet

    testbed = TraceSet()
    for trace in all_traces:
        testbed.add(trace)
    save_traceset(testbed, args.out)
    print(f"[{len(testbed)} machine traces written to {args.out}/]")
    return 0


def _cmd_ingest_tail(args: argparse.Namespace) -> int:
    import json as _json

    result, rc = _on_target(args, lambda client: client.tail(args.machine, n=args.n))
    if result is None:
        return rc
    if args.json:
        print(_json.dumps(result, indent=2))
        return 0
    print(
        f"{result['machine']}: {result['n_samples']} samples, "
        f"period {result['sample_period']:g}s, "
        f"model time [{result['start_time']:g}, {result['end_time']:g})"
    )
    header = f"{'model time':>14} {'load':>8} {'free MB':>10} {'up':>3}"
    print(header)
    print("-" * len(header))
    for s in result["samples"]:
        mem = "inf" if s["free_mem_mb"] == float("inf") else f"{s['free_mem_mb']:.0f}"
        print(
            f"{s['time']:>14.1f} {s['load']:>8.3f} {mem:>10} "
            f"{'up' if s['up'] else 'DN':>3}"
        )
    return 0


def _target_args(
    p: argparse.ArgumentParser,
    *,
    cluster_help: str = "read the router address from a cluster spec JSON",
) -> None:
    """The flags naming the server or cluster a client command talks to."""
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="server (or cluster router) port")
    p.add_argument("--port-file",
                   help="read the port from this file (as written by "
                   "'repro-fgcs serve --port-file' or 'cluster start')")
    p.add_argument("--cluster", metavar="SPEC", help=cluster_help)
    p.add_argument("--connect-timeout", type=float, default=10.0)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-fgcs",
        description="Resource availability prediction in FGCS systems — "
        "reproduction of Ren et al., HPDC 2006.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument("--scale", choices=("quick", "full"), default="quick",
                     help="quick: minutes; full: paper-scale (default: quick)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", help="directory to also write result tables as CSV")
    run.add_argument("--metrics-out", default=_DEFAULT_SNAPSHOT,
                     help="metrics snapshot path (default: %(default)s)")
    run.add_argument("--bench-out", default=None,
                     help="directory for machine-readable BENCH_<id>.json "
                     "perf snapshots (compared by tools/bench_gate.py)")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synthesize", help="generate a synthetic testbed")
    synth.add_argument("--machines", type=int, default=8)
    synth.add_argument("--days", type=int, default=90)
    synth.add_argument("--period", type=float, default=6.0,
                       help="monitoring period in seconds (default: 6)")
    synth.add_argument("--profile", default="student-lab",
                       help="machine profile (student-lab, office-desktop, server-room)")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output directory")
    synth.set_defaults(func=_cmd_synthesize)

    pred = sub.add_parser("predict", help="predict TR from a saved trace")
    pred.add_argument("--trace", required=True, help="path to a .npz trace")
    pred.add_argument("--start-hour", type=float, default=8.0)
    pred.add_argument("--hours", type=float, default=5.0)
    pred.add_argument("--weekend", action="store_true",
                      help="predict for weekends instead of weekdays")
    pred.add_argument("--step-multiple", type=int, default=10,
                      help="SMP step as a multiple of the monitoring period")
    pred.add_argument("--metrics-out", default=_DEFAULT_SNAPSHOT,
                      help="metrics snapshot path (default: %(default)s)")
    pred.set_defaults(func=_cmd_predict)

    serve = sub.add_parser("serve", help="run the TCP availability server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7061,
                       help="TCP port; 0 picks an ephemeral port (default: 7061)")
    serve.add_argument("--port-file",
                       help="write the bound port to this file once listening")
    serve.add_argument("--traces", help="directory of .npz traces to pre-register")
    serve.add_argument("--store",
                       help="trace-store directory; warm-starts the registry from "
                       "it and persists registrations/extensions durably")
    serve.add_argument("--fsync", default="interval",
                       help="store durability policy: always | interval[:SECONDS] "
                       "| never (default: interval)")
    serve.add_argument("--workers", type=int, default=4,
                       help="prediction worker threads (default: 4)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max admitted-but-unanswered requests (default: 64)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline in ms (default: none)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds to wait for in-flight work on shutdown")
    serve.add_argument("--cache-entries", type=int, default=512,
                       help="LRU bound on cached (machine, window) entries")
    serve.add_argument("--audit", action="store_true",
                       help="journal served predictions and score them as "
                       "ground truth arrives (the 'quality' op / 'repro-fgcs "
                       "audit report' read the scoreboard)")
    serve.add_argument("--audit-dir",
                       help="audit journal directory (implies --audit; the "
                       "journal survives restarts)")
    serve.add_argument("--node-id", default="local",
                       help="node identity stamped into audit records "
                       "(default: local)")
    serve.add_argument("--adapt", action="store_true",
                       help="run the self-healing adapt tier: auto retune on "
                       "per-machine drift alarms, champion/challenger shadow "
                       "trials, calibrated fallback (implies a memory-only "
                       "audit when no audit flags are given)")
    serve.add_argument("--sched-dir", default=None,
                       help="scheduler WAL directory; job state survives "
                       "restarts (default: memory-only scheduler)")
    serve.add_argument("--sched-speedup", type=float, default=1.0,
                       help="guest CPU-seconds completed per wall second "
                       "(tests/bench compress simulated hours; default: 1)")
    serve.add_argument("--metrics-out", default=None,
                       help="write a metrics snapshot here on SIGTERM drain")
    serve.add_argument("--trace-out", default=None,
                       help="append request trace spans to this JSONL file "
                       "(eagerly flushed; read with 'repro-fgcs trace')")
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser("query",
                           help="query a running availability server or cluster")
    query.add_argument("op",
                       choices=("predict", "predict_batch", "fleet_scan", "rank",
                                "select", "horizon", "health",
                                "register", "extend", "quality", "adapt_status"))
    _target_args(query, cluster_help="read the router address from a cluster "
                 "spec JSON (as written by 'repro-fgcs cluster start')")
    query.add_argument("--machine", help="machine id (predict/horizon)")
    query.add_argument("--machines", nargs="+", metavar="ID", default=None,
                       help="restrict predict_batch/fleet_scan to these "
                       "machines (default: every registered machine)")
    query.add_argument("--horizons-hours", nargs="+", type=float, default=None,
                       metavar="H",
                       help="sub-window TRs to include per fleet_scan entry")
    query.add_argument("--trace",
                       help="path to a .npz trace to ship (register/extend)")
    query.add_argument("--retries", type=int, default=0,
                       help="retry shed/shutting_down responses this many times "
                       "with jittered backoff (default: 0)")
    query.add_argument("--start-hour", type=float, default=9.0)
    query.add_argument("--hours", type=float, default=2.0)
    query.add_argument("--weekend", action="store_true",
                       help="query weekends instead of weekdays")
    query.add_argument("--k", type=int, default=1, help="gang size for select")
    query.add_argument("--tr-threshold", type=float, default=0.9,
                       help="TR threshold for horizon")
    query.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline in ms")
    query.add_argument("--traced", action="store_true",
                       help="attach a fresh trace context to the request and "
                       "export the client-side spans")
    query.add_argument("--trace-out", default=None,
                       help="client-side span JSONL path (implies --traced; "
                       f"default with --traced: {_DEFAULT_TRACE_PATH})")
    query.set_defaults(func=_cmd_query)

    clus = sub.add_parser(
        "cluster",
        help="run a sharded, replicated multi-node cluster behind one router",
    )
    csub = clus.add_subparsers(dest="cluster_op", required=True)

    cstart = csub.add_parser(
        "start", help="start N backend serve processes and the router"
    )
    cstart.add_argument("--nodes", type=int, default=3,
                        help="backend node count (default: 3)")
    cstart.add_argument("--replicas", type=int, default=2,
                        help="replication factor R (default: 2)")
    cstart.add_argument("--vnodes", type=int, default=64,
                        help="virtual nodes per backend on the hash ring")
    cstart.add_argument("--data", required=True,
                        help="cluster data directory (per-node stores + spec)")
    cstart.add_argument("--host", default="127.0.0.1")
    cstart.add_argument("--port", type=int, default=7070,
                        help="router port; 0 picks an ephemeral port")
    cstart.add_argument("--port-file",
                        help="write the router port to this file once listening")
    cstart.add_argument("--spec-file",
                        help="cluster spec path (default: DATA/cluster.json)")
    cstart.add_argument("--traces",
                        help="traceset directory to register through the router "
                        "(quorum-replicated onto the owning shards)")
    cstart.add_argument("--fsync", default="always",
                        help="per-node store durability policy (default: always)")
    cstart.add_argument("--workers", type=int, default=2,
                        help="worker threads per backend (default: 2)")
    cstart.add_argument("--queue-depth", type=int, default=64,
                        help="admission queue depth per backend (default: 64)")
    cstart.add_argument("--probe-interval", type=float, default=0.5,
                        help="membership health-probe period in seconds")
    cstart.add_argument("--no-supervise", action="store_true",
                        help="do not relaunch backends that die")
    cstart.add_argument("--sched", action="store_true",
                        help="give every backend a durable scheduler WAL "
                        "under DATA/node-*/sched (job state survives "
                        "node restarts)")
    cstart.add_argument("--sched-speedup", type=float, default=1.0,
                        help="guest CPU-seconds completed per wall second "
                        "on every backend's scheduler (default: 1)")
    cstart.add_argument("--audit", action="store_true",
                        help="enable the prediction audit on every backend "
                        "(journals under DATA/node-*/audit; the router merges "
                        "'quality' across nodes)")
    cstart.add_argument("--metrics-out", default=None,
                        help="write the router's metrics snapshot here on "
                        "SIGTERM drain (nodes write DATA/node-*/metrics.json)")
    cstart.add_argument("--trace-out", default=None,
                        help="append router trace spans to this JSONL file; "
                        "backends trace to DATA/node-*/trace.jsonl "
                        "(merge with 'repro-fgcs trace')")
    cstart.set_defaults(func=_cmd_cluster_start)

    cstatus = csub.add_parser("status", help="show per-node cluster health")
    cstatus.add_argument("--spec", help="cluster spec JSON from 'cluster start'")
    cstatus.add_argument("--host", default="127.0.0.1")
    cstatus.add_argument("--port", type=int, default=0, help="router port")
    cstatus.add_argument("--connect-timeout", type=float, default=5.0)
    cstatus.set_defaults(func=_cmd_cluster_status)

    cstop = csub.add_parser("stop", help="stop a running cluster by spec file")
    cstop.add_argument("--spec", required=True,
                       help="cluster spec JSON from 'cluster start'")
    cstop.add_argument("--timeout", type=float, default=30.0,
                       help="seconds to wait for the cluster to exit")
    cstop.set_defaults(func=_cmd_cluster_stop)

    store = sub.add_parser("store", help="manage a durable trace store")
    store.add_argument("store_op", choices=("init", "ingest", "stat", "compact"),
                       help="init: create; ingest: load a traceset; stat: "
                       "per-machine accounting; compact: fold WALs into snapshots")
    store.add_argument("dir", help="store directory")
    store.add_argument("--traces", help="traceset directory to ingest")
    store.add_argument("--fsync", default="interval",
                       help="durability policy: always | interval[:SECONDS] | never")
    store.set_defaults(func=_cmd_store)

    audit = sub.add_parser(
        "audit", help="inspect online prediction quality (Brier, ECE, drift)"
    )
    asub = audit.add_subparsers(dest="audit_op", required=True)

    areport = asub.add_parser(
        "report", help="fetch and render the quality scoreboard"
    )
    _target_args(areport)
    areport.add_argument("--machine", help="restrict the report to one machine")
    areport.add_argument("--json", action="store_true",
                         help="print the raw quality result as JSON")
    areport.set_defaults(func=_cmd_audit_report)

    awatch = asub.add_parser(
        "watch", help="poll the scoreboard, one summary line per tick"
    )
    _target_args(awatch)
    awatch.add_argument("--machine", help="restrict the report to one machine")
    awatch.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls (default: 2)")
    awatch.add_argument("--count", type=int, default=30,
                        help="number of polls before exiting (default: 30)")
    awatch.set_defaults(func=_cmd_audit_watch)

    aresolve = asub.add_parser(
        "resolve",
        help="offline: label a journal's pending predictions against a "
        "trace store's histories",
    )
    aresolve.add_argument("--journal", required=True,
                          help="audit journal directory (from serve --audit-dir)")
    aresolve.add_argument("--store", required=True,
                          help="trace-store directory holding the ground truth")
    aresolve.add_argument("--json", action="store_true",
                          help="print the raw quality result as JSON")
    aresolve.set_defaults(func=_cmd_audit_resolve)

    adapt = sub.add_parser(
        "adapt",
        help="inspect and drive the self-healing model tier "
        "(retunes, shadow trials, promotions)",
    )
    adsub = adapt.add_subparsers(dest="adapt_op", required=True)

    adstatus = adsub.add_parser(
        "status", help="show retunes, trials and promotions per machine"
    )
    _target_args(adstatus)
    adstatus.add_argument("--machine", help="restrict to one machine")
    adstatus.add_argument("--json", action="store_true",
                          help="print the raw adapt_status result as JSON")
    adstatus.set_defaults(func=_cmd_adapt_status)

    adwatch = adsub.add_parser(
        "watch", help="poll the adapt tier, one summary line per tick"
    )
    _target_args(adwatch)
    adwatch.add_argument("--machine", help="restrict to one machine")
    adwatch.add_argument("--interval", type=float, default=2.0,
                         help="seconds between polls (default: 2)")
    adwatch.add_argument("--count", type=int, default=30,
                         help="number of polls before exiting (default: 30)")
    adwatch.set_defaults(func=_cmd_adapt_watch)

    adretune = adsub.add_parser(
        "retune", help="backtest candidate models for one machine now"
    )
    _target_args(adretune)
    adretune.add_argument("--machine", required=True,
                          help="machine id to retune")
    adretune.add_argument("--json", action="store_true",
                          help="print the raw retune plan as JSON")
    adretune.set_defaults(func=_cmd_adapt_retune)

    adpromote = adsub.add_parser(
        "promote", help="promote one machine's shadow challenger"
    )
    _target_args(adpromote)
    adpromote.add_argument("--machine", required=True,
                           help="machine id whose challenger to promote")
    adpromote.add_argument("--force", action="store_true",
                           help="promote even without the scoreboard margin")
    adpromote.add_argument("--json", action="store_true",
                           help="print the raw result as JSON")
    adpromote.set_defaults(func=_cmd_adapt_promote)

    sched = sub.add_parser(
        "sched", help="submit and track guest jobs on the TR-aware scheduler"
    )
    ssub = sched.add_subparsers(dest="sched_op", required=True)

    ssubmit = ssub.add_parser("submit", help="submit a job for placement")
    _target_args(ssubmit)
    ssubmit.add_argument("--job", required=True, help="job id (idempotent)")
    ssubmit.add_argument("--cpu-seconds", type=float, required=True,
                         help="total guest CPU-seconds the job needs")
    ssubmit.add_argument("--cpu", type=float, default=1.0,
                         help="CPU cores demanded (default: 1)")
    ssubmit.add_argument("--mem-mb", type=float, default=64.0,
                         help="resident memory demanded in MB (default: 64)")
    ssubmit.add_argument("--checkpoint-interval", type=float, default=None,
                         help="checkpoint period in guest seconds "
                         "(default: scheduler config)")
    ssubmit.set_defaults(func=_cmd_sched_submit)

    sstatus = ssub.add_parser(
        "status", help="show one job (--job) or the whole job table"
    )
    _target_args(sstatus)
    sstatus.add_argument("--job", help="restrict to one job id")
    sstatus.add_argument("--json", action="store_true",
                         help="print the raw result as JSON")
    sstatus.set_defaults(func=_cmd_sched_status)

    swatch = ssub.add_parser(
        "watch", help="poll the job table until every job is terminal"
    )
    _target_args(swatch)
    swatch.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls (default: 2)")
    swatch.add_argument("--count", type=int, default=30,
                        help="number of polls before giving up (default: 30)")
    swatch.set_defaults(func=_cmd_sched_watch)

    sdrain = ssub.add_parser(
        "drain",
        help="re-place the jobs running on the given machines "
        "(checkpoint-migrate when cheaper than restart)",
    )
    _target_args(sdrain)
    sdrain.add_argument("machines", nargs="+",
                        help="machine ids to drain jobs away from")
    sdrain.add_argument("--reason", default="drain",
                        help="replacement reason recorded on the attempts "
                        "(drain* reasons allow live migration)")
    sdrain.set_defaults(func=_cmd_sched_drain)

    ingest = sub.add_parser(
        "ingest", help="feed real telemetry into a server (live agent, "
        "foreign trace import, read-back tail)"
    )
    isub = ingest.add_subparsers(dest="ingest_op", required=True)

    import socket as _socket

    iagent = isub.add_parser(
        "agent",
        help="run the live host monitor: sample this machine onto the "
        "model grid and stream chunks through 'extend'",
    )
    _target_args(iagent)
    iagent.add_argument("--machine", default=_socket.gethostname(),
                        help="machine id to report as (default: hostname)")
    iagent.add_argument("--period", type=float, default=6.0,
                        help="monitoring period in seconds (default: 6, "
                        "the paper's testbed setting)")
    # Mirror of repro.ingest.samplers.SAMPLER_KINDS, kept literal so
    # building the parser stays import-light.
    iagent.add_argument("--sampler", default="auto",
                        choices=("auto", "psutil", "proc", "synthetic"),
                        help="host sampler backend: psutil (needs the "
                        "repro[ingest] extra), proc (/proc, Linux, no deps), "
                        "synthetic (deterministic walk); auto picks psutil, "
                        "or synthetic under --simulate-days (default: auto)")
    iagent.add_argument("--seed", type=int, default=0,
                        help="seed for the synthetic sampler")
    iagent.add_argument("--duration", type=float, default=None,
                        help="stop after this many wall seconds "
                        "(default: run until SIGINT/SIGTERM)")
    iagent.add_argument("--samples", type=int, default=None,
                        help="stop after generating this many samples")
    iagent.add_argument("--simulate-days", type=float, default=None,
                        help="run on a simulated clock for this many model "
                        "days (sleep is free; builds multi-day histories "
                        "in seconds)")
    iagent.add_argument("--chunk", type=int, default=10,
                        help="samples per extend chunk (default: 10, one "
                        "minute at the 6 s period)")
    iagent.add_argument("--ring", type=int, default=4096,
                        help="in-memory buffer bound in samples (default: 4096)")
    iagent.add_argument("--spill-dir", default=None,
                        help="durable spill directory; unacknowledged samples "
                        "survive agent crashes and server outages")
    iagent.add_argument("--utc-offset", type=float, default=0.0,
                        help="seconds to add to UTC for the model calendar "
                        "(the paper's weekday/weekend split is local time)")
    iagent.add_argument("--retries", type=int, default=3,
                        help="retry shed/refused flushes this many times "
                        "with jittered backoff (default: 3)")
    iagent.set_defaults(func=_cmd_ingest_agent)

    iimport = isub.add_parser(
        "import",
        help="convert a foreign trace file onto the model grid and "
        "register it (or write a traceset with --out)",
    )
    _target_args(iimport)
    iimport.add_argument("files", nargs="+", help="foreign trace files")
    # Mirror of the repro.ingest.adapters registry, kept literal so
    # building the parser stays import-light.
    iimport.add_argument("--format", default="csv",
                         choices=("csv", "preempt"),
                         help="adapter: csv (timestamp,load[,free_mem_mb]"
                         "[,up][,machine]) or preempt (instance,start,end"
                         "[,cause] spot-VM lifetimes) (default: csv)")
    iimport.add_argument("--period", type=float, default=6.0,
                         help="model grid period in seconds (default: 6)")
    iimport.add_argument("--machine", default=None,
                         help="override the machine id (single-machine "
                         "files only)")
    iimport.add_argument("--gap-policy", choices=("down", "reject"),
                         default="down",
                         help="slots with no source data: mark the machine "
                         "down, or reject the import (default: down)")
    iimport.add_argument("--native-period", type=float, default=None,
                         help="source cadence in seconds (csv adapter; "
                         "default: inferred from timestamps)")
    iimport.add_argument("--utc-offset", type=float, default=0.0,
                         help="seconds to add to UTC for the model calendar")
    iimport.add_argument("--out", default=None,
                         help="write converted traces to this traceset "
                         "directory instead of registering them")
    iimport.set_defaults(func=_cmd_ingest_import)

    itail = isub.add_parser(
        "tail",
        help="read back the last N samples the server holds for a machine",
    )
    _target_args(itail)
    itail.add_argument("--machine", required=True, help="machine id")
    itail.add_argument("-n", type=int, default=10,
                       help="samples to read (default: 10)")
    itail.add_argument("--json", action="store_true",
                       help="print the raw result as JSON")
    itail.set_defaults(func=_cmd_ingest_tail)

    trace = sub.add_parser(
        "trace",
        help="reconstruct span trees from exported trace JSONL and print a "
        "critical-path latency breakdown",
    )
    trace.add_argument("inputs", nargs="+",
                       help="trace JSONL files (client + server/router + "
                       "per-node files are merged by trace id)")
    trace.add_argument("--trace-id", default=None,
                       help="restrict to one trace (full id or unique prefix)")
    trace.add_argument("--tree", action="store_true",
                       help="also print every trace's span tree")
    trace.add_argument("--exemplars", type=int, default=3,
                       help="slowest-trace exemplars to list (default: 3)")
    trace.add_argument("--json", action="store_true",
                       help="machine-readable summary instead of text")
    trace.set_defaults(func=_cmd_trace)

    obs = sub.add_parser("obs", help="render the metrics snapshot")
    obs.add_argument("--format", choices=("table", "prometheus"), default="table",
                     help="output format (default: table)")
    obs.add_argument("--metrics-in", default=_DEFAULT_SNAPSHOT,
                     help="snapshot to render (default: %(default)s)")
    obs.set_defaults(func=_cmd_obs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
