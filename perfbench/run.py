"""Request-path benchmark: three traffic mixes against the real servers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload predict-mix --seed 1 --seconds 18 --trace 0

Each run generates its testbed and requests from ``--seed``, starts
``repro serve`` (or ``repro cluster start``) as separate processes,
drives them from this one process over at most two connections, checks
every answer against an in-process ``AvailabilityService`` and prints one
JSON object as its last line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same mix half untraced and half traced
and reports the per-layer metrics instead (see ``perfbench/design.json``).
The exit code is non-zero when any answer is wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Launches per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Unmeasured open-loop lead-in that lets connections and imports settle.
WARMUP_S = 1.0
#: Share of ``--seconds`` spent open loop (the rest measures capacity).
OPEN_SHARE = 0.6
#: Open-loop / closed-loop alternations in an untraced run.
ROUNDS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def add_mirrors(w, reqs, traced: bool) -> None:
    """Routed-mix: copy a share of routed reads straight to ``node-0``.

    Only reads ``node-0`` serves as primary are copied (fleet ops are
    answered by every node), so routed and direct answers come from the
    same process.
    """
    import numpy as np

    from repro.cluster.ring import HashRing
    from repro.obs.tracing import TraceContext

    from workloads import Req

    ring = HashRing(["node-0", "node-1"], replicas=2)
    rng = np.random.default_rng([len(reqs), 17])
    for req in reqs:
        if not req.is_read or rng.random() >= w.mirror_share:
            continue
        if req.machine is not None and ring.owners(req.machine)[0] != "node-0":
            continue
        req.mirror = Req(
            id=req.id + "d", op=req.op, params=req.params, machine=req.machine,
            key=req.key, mirror_of=req, repeat=True,
            trace=TraceContext.new_root().to_wire() if traced else None,
        )


async def drive(dep, w, bed, factory, seed, phases, closed_s):
    """Prime, warm up, then alternate open-loop and closed-loop rounds.

    ``phases`` lists the open-loop phases as (name, seconds, traced).
    Each schedule is drawn just before it runs, so extend chunks are
    numbered in the order they are sent.  Alternating spreads both
    measurements over the whole run, so a slow patch of a shared host
    weighs on latency and capacity alike.  Returns the open-loop
    schedules, the closed-loop requests and the closed-loop seconds.
    """
    from loadgen import Conn, LoadGen, Versions
    from procs import HOST

    gen = LoadGen(Versions(bed.ids))

    async def connect(port: int) -> Conn:
        return gen.attach(await Conn.open(HOST, port))

    main = await connect(dep.port)
    if w.cluster:
        gen.mirror = await connect(dep.backend_port("node-0"))
        open_conns = [main]
    else:
        open_conns = [main, await connect(dep.port)]
    prime = factory.prime()
    await gen.sequential(main, prime)
    streams = [factory.closed_stream("cap", c, seed) for c in range(2)]
    schedules, done, elapsed = [], [], 0.0
    for name, seconds, traced in phases:
        reqs = factory.open_loop(name, seconds, seed, traced=traced)
        if w.mirror_share:
            add_mirrors(w, reqs, traced)
        for req in reqs:
            req.encode()
        schedules.append(reqs)
        await gen.open_loop(open_conns, reqs)
        if closed_s <= 0 or name == "warm":
            continue
        if w.cluster:
            # Two router connections for the closed loop; the direct one
            # returns afterwards.
            await gen.detach(gen.mirror)
            second = await connect(dep.port)
            part, secs = await gen.closed_loop([main, second], streams, closed_s)
            await gen.detach(second)
            gen.mirror = await connect(dep.backend_port("node-0"))
        else:
            part, secs = await gen.closed_loop(open_conns, streams, closed_s)
        done += part
        elapsed += secs
    await gen.close()
    schedules[0][:0] = prime  # unmeasured, like the warm-up
    return schedules, done, elapsed


def run(w, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    from repro.serve.protocol import ProtocolError, Response
    from repro.traces.io import save_traceset
    from repro.traces.trace import TraceSet

    from oracle import Oracle
    from procs import Deployment, build_store
    from stats import median, pct, ratio
    from workloads import RequestFactory, make_testbed

    marks = [("start", time.perf_counter())]
    bed = make_testbed(seed)
    base = TraceSet()
    for m in bed.ids:
        base.add(bed.base[m])
    save_traceset(base, work / "traces")
    if w.store or w.cluster:
        build_store(SRC, work / "traces", work / "store")
    if w.cluster:
        for node in ("node-0", "node-1"):
            shutil.copytree(work / "store", work / "cluster" / node / "store")

    factory = RequestFactory(w, bed, seed)
    phases = [("warm", WARMUP_S, False)]
    if traced:
        phases += [("plain", seconds / 2, False), ("traced", seconds / 2, True)]
        closed_s = 0.0
    else:
        phases += [
            (f"open{r}", seconds * OPEN_SHARE / ROUNDS, False) for r in range(ROUNDS)
        ]
        closed_s = seconds * (1 - OPEN_SHARE) / ROUNDS

    marks.append(("inputs", time.perf_counter()))
    dep = Deployment(w, work, SRC, traced=traced)
    setup = []
    try:
        for i in range(SETUP_REPEATS):
            setup.append(dep.launch())
            if i + 1 < SETUP_REPEATS:
                dep.stop()
        marks.append(("setup", time.perf_counter()))
        schedules, closed, closed_elapsed = asyncio.run(
            drive(dep, w, bed, factory, seed, phases, closed_s)
        )
        rss_mb = dep.peak_rss_mb()
    finally:
        code = dep.stop()

    marks.append(("drive", time.perf_counter()))
    reqs = [r for reqs in schedules for r in reqs] + closed
    reqs += [r.mirror for r in reqs if r.mirror is not None and r.mirror.raw]
    failed: set[str] = set()
    for req in reqs:
        if not req.raw:
            failed.add(req.id)
            continue
        try:
            req.response = Response.decode(req.raw)
        except ProtocolError:
            failed.add(req.id)
            continue
        if not req.response.ok:
            failed.add(req.id)
    oracle = Oracle(bed)
    oracle.check_all(reqs)
    marks.append(("oracle", time.perf_counter()))
    wrong = {e.split(" ", 1)[0] for e in oracle.errors}
    failed |= wrong
    for message in oracle.errors[:20]:
        print(f"WRONG {message}", file=sys.stderr)

    def ok(r):
        return r.id not in failed

    measured = schedules[-1:] if traced else schedules[1:]
    reads = [r for s in measured for r in s if r.is_read and ok(r)]
    writes = [r for s in measured for r in s if r.op == "extend" and ok(r)]
    read_ms = [(r.recv - r.due) * 1e3 for r in reads]
    write_ms = [(r.recv - r.due) * 1e3 for r in writes]
    capacity = ratio(sum(1 for r in closed if ok(r)), closed_elapsed)
    summary = {
        "workload": w.name, "seed": seed,
        "read_samples": len(read_ms), "write_samples": len(write_ms),
        "write_p90_ms": round(pct(write_ms, 90), 3),
        "capacity_requests": len(closed), "server_exit_code": code,
        "wrong_answers": len(wrong), "fail_ratio": ratio(len(failed), len(reqs)),
        "setup_each_s": [round(s, 3) for s in setup],
        "read_lag_p50_ms": round(median((r.sent - r.due) * 1e3 for r in reads), 3),
        "read_rtt_p50_ms": round(median((r.recv - r.sent) * 1e3 for r in reads), 3),
        "read_server_p50_ms": round(median(r.response.elapsed_ms for r in reads), 3),
        "phase_s": {b[0]: round(b[1] - a[1], 2) for a, b in zip(marks, marks[1:])},
    }
    result = {
        "correct": not wrong and code == 0,
        "attempted": len(reqs),
        "failed": len(failed),
        "summary": summary,
    }
    if traced:
        from layers import per_layer

        result["metrics"] = per_layer(w, bed, dep, schedules, reqs, failed)
        return result
    result["metrics"] = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (median(read_ms), "ms"),
        "latency_p90_ms": (pct(read_ms, 90), "ms"),
        "write_p50_ms": (median(write_ms), "ms"),
        "capacity_rps": (capacity, "1/s"),
        "server_rss_mb": (rss_mb, "MB"),
    }
    return result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception so the servers are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(w, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for key, value in result.pop("summary").items():
        print(f"# {key}: {value}")
    metrics = {}
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<40} {value:>14.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
