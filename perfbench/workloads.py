"""The traffic mixes and their seeded inputs.

Everything a run sends is derived here from ``--seed``: the testbed
(base histories plus the future samples that ``extend`` streams in), the
open-loop arrival schedule and the closed-loop request streams.  The
serving processes only ever see the generated traces and requests.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.core.windows import SECONDS_PER_DAY
from repro.obs.tracing import TraceContext
from repro.serve.protocol import Request
from repro.traces.synthesis import synthesize_testbed
from repro.traces.trace import MachineTrace

#: Ops answered from history without changing it.
READ_OPS = ("predict", "horizon", "fleet_scan")

MACHINES = 100
HISTORY_DAYS = 14
PERIOD_S = 120.0
#: Samples per ``extend`` chunk (one hour at PERIOD_S).
CHUNK = 30
#: Zipf exponent over the machine x window key space of predict/horizon.
KEY_SKEW = 1.3
#: Recurring windows a scheduler asks about: start hour x length x day type.
_START_HOURS = tuple(range(24))
_LENGTHS_H = (1.0, 2.0, 3.0, 4.0)
_DAY_TYPES = ("weekday", "weekend")
#: Windows fleet scans draw from; both stay in the scan cache.
_FLEET_WINDOWS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix: rates, op shares and deployment."""

    name: str
    #: Open-loop read arrivals per second (Poisson).
    read_rate: float
    #: (op, share) pairs over READ_OPS; shares sum to 1.
    read_mix: tuple[tuple[str, float], ...]
    #: Open-loop ``extend`` arrivals per second (Poisson).
    write_rate: float
    #: Share of predicts sent twice back to back (exact duplicates).
    dup_share: float = 0.0
    #: Node runs with ``--store … --fsync always``.
    store: bool = False
    #: Served by ``repro cluster start --nodes 2 --replicas 2``.
    cluster: bool = False
    #: Share of routed reads also sent straight to a backend.
    mirror_share: float = 0.0

    @property
    def write_share(self) -> float:
        return self.write_rate / (self.read_rate + self.write_rate)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="predict-mix",
            read_rate=150.0,
            read_mix=(("predict", 0.90), ("horizon", 0.10)),
            write_rate=40.0,
            dup_share=0.03,
        ),
        Workload(
            name="ingest-mix",
            read_rate=60.0,
            read_mix=(("predict", 0.95), ("fleet_scan", 0.05)),
            write_rate=30.0,
            store=True,
        ),
        Workload(
            name="routed-mix",
            read_rate=90.0,
            read_mix=(("predict", 0.86), ("horizon", 0.10), ("fleet_scan", 0.04)),
            write_rate=20.0,
            dup_share=0.03,
            cluster=True,
            mirror_share=0.3,
        ),
    )
}


# ---------------------------------------------------------------------- #
# testbed
# ---------------------------------------------------------------------- #


def _slice(trace: MachineTrace, lo: int, hi: int) -> MachineTrace:
    return MachineTrace(
        machine_id=trace.machine_id,
        start_time=trace.start_time + lo * trace.sample_period,
        sample_period=trace.sample_period,
        load=trace.load[lo:hi],
        free_mem_mb=trace.free_mem_mb[lo:hi],
        up=trace.up[lo:hi],
    )


@dataclass
class Testbed:
    """Base histories the server starts from, plus each machine's future."""

    ids: list[str]
    base: dict[str, MachineTrace]
    #: machine -> consecutive CHUNK-sample chunks following its base history.
    chunks: dict[str, list[MachineTrace]]


def make_testbed(seed: int, extra_days: int = 2) -> Testbed:
    full = synthesize_testbed(
        MACHINES, n_days=HISTORY_DAYS + extra_days, sample_period=PERIOD_S, seed=seed
    )
    n_base = int(round(HISTORY_DAYS * SECONDS_PER_DAY / PERIOD_S))
    base: dict[str, MachineTrace] = {}
    chunks: dict[str, list[MachineTrace]] = {}
    for trace in full:
        base[trace.machine_id] = _slice(trace, 0, n_base)
        n_chunks = (trace.n_samples - n_base) // CHUNK
        chunks[trace.machine_id] = [
            _slice(trace, n_base + i * CHUNK, n_base + (i + 1) * CHUNK)
            for i in range(n_chunks)
        ]
    return Testbed(ids=sorted(base), base=base, chunks=chunks)


def extend_params(chunk: MachineTrace) -> dict[str, Any]:
    return {
        "machine": chunk.machine_id,
        "start_time": chunk.start_time,
        "sample_period": chunk.sample_period,
        "load": [float(x) for x in chunk.load],
        "free_mem_mb": [float(x) for x in chunk.free_mem_mb],
        "up": [bool(x) for x in chunk.up],
    }


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #


@dataclass(eq=False)
class Req:
    """One request and everything the run learns about it."""

    id: str
    op: str
    params: dict[str, Any]
    #: Machine of a single-machine op (predict/horizon/extend).
    machine: str | None = None
    #: Cache identity of a read: (machine or None, start, hours, day type).
    key: tuple | None = None
    #: For extend: the machine's chunk count once this chunk is applied.
    version: int = 0
    #: Open-loop due time: seconds from phase start until sent, then absolute.
    due: float = 0.0
    conn: int = 0
    trace: dict[str, str] | None = None
    line: bytes = b""
    # -- filled in by the load generator -------------------------------- #
    sent: float = math.nan
    recv: float = math.nan
    raw: bytes = b""
    #: Extend versions seen by a read: acked at send (lo), sent by receive (hi).
    lo: Any = None
    hi: Any = None
    #: Routed-mix: the direct-to-backend copy of this routed read.
    mirror: "Req | None" = None
    mirror_of: "Req | None" = None
    #: True when an earlier request of this run had the same key.
    repeat: bool = False
    response: Any = None

    def encode(self) -> bytes:
        if not self.line:
            self.line = Request(
                op=self.op, params=self.params, id=self.id, trace=self.trace
            ).encode()
        return self.line

    @property
    def is_read(self) -> bool:
        return self.op in READ_OPS


def _zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return p / p.sum()


class RequestFactory:
    """Draws requests of one workload from seeded generators.

    The chunk counters are shared by every stream of a run, so extends of
    one machine always carry its next chunk in order.
    """

    def __init__(self, w: Workload, bed: Testbed, seed: int) -> None:
        self.w = w
        self.bed = bed
        rng = np.random.default_rng([seed, 7])
        # predict/horizon keys: a seeded permutation ranks the key space.
        self.keys = [
            (m, float(h), length, d)
            for m in bed.ids
            for h in _START_HOURS
            for length in _LENGTHS_H
            for d in _DAY_TYPES
        ]
        self.key_rank = rng.permutation(len(self.keys))
        self.key_p = _zipf_probs(len(self.keys), KEY_SKEW)
        picks = rng.choice(len(_START_HOURS) * 3, size=_FLEET_WINDOWS, replace=False)
        self.fleet_windows = [
            (float(_START_HOURS[i % 24]), (2.0, 3.0, 4.0)[i // 24]) for i in picks
        ]
        self.ops = [op for op, _ in w.read_mix]
        self.op_p = np.array([s for _, s in w.read_mix], dtype=float)
        self.op_p /= self.op_p.sum()
        self.write_order = list(rng.permutation(bed.ids))
        self._writes = 0
        self._next_chunk = {m: 0 for m in bed.ids}
        self.seen: set[tuple] = set()

    # -- one request ---------------------------------------------------- #

    def _scan(self, h: float, length: float, rid: str) -> Req:
        params = {"start_hour": h, "hours": length, "day_type": "weekday",
                  "horizons_hours": [0.5, 1.0]}
        return Req(id=rid, op="fleet_scan", params=params,
                   key=(None, h, length, "weekday"))

    def read(self, rng: np.random.Generator, rid: str) -> Req:
        op = self.ops[int(rng.choice(len(self.ops), p=self.op_p))]
        if op == "fleet_scan":
            h, length = self.fleet_windows[int(rng.integers(len(self.fleet_windows)))]
            req = self._scan(h, length, rid)
        else:
            m, h, length, d = self.keys[
                int(self.key_rank[int(rng.choice(len(self.keys), p=self.key_p))])
            ]
            params: dict[str, Any] = {
                "machine": m, "start_hour": h, "hours": length, "day_type": d,
            }
            if op == "horizon":
                params["tr_threshold"] = 0.9
            req = Req(id=rid, op=op, params=params, machine=m, key=(m, h, length, d))
        req.repeat = req.key in self.seen
        self.seen.add(req.key)
        return req

    def extend(self, machine: str, rid: str) -> Req | None:
        i = self._next_chunk[machine]
        chunks = self.bed.chunks[machine]
        if i >= len(chunks):
            return None
        self._next_chunk[machine] = i + 1
        return Req(
            id=rid, op="extend", params=extend_params(chunks[i]),
            machine=machine, version=i + 1,
        )

    # -- schedules ------------------------------------------------------ #

    def prime(self) -> list[Req]:
        """One scan of each fleet window, sent before the warm-up.

        A first scan classifies every machine's days for the window; that
        cold start is paid once per server, not by the measured scans.
        """
        if "fleet_scan" not in self.ops:
            return []
        out = [self._scan(h, length, f"prime-{i}")
               for i, (h, length) in enumerate(self.fleet_windows)]
        self.seen.update(req.key for req in out)
        return out

    def open_loop(
        self, phase: str, duration: float, seed: int, *, traced: bool = False
    ) -> list[Req]:
        """Poisson reads and writes over ``duration`` seconds, due-ordered."""
        rng = np.random.default_rng([seed, 11, zlib.crc32(phase.encode())])
        out: list[Req] = []
        t = 0.0
        n = 0
        while True:
            t += rng.exponential(1.0 / self.w.read_rate)
            if t >= duration:
                break
            req = self.read(rng, f"{phase}-{n}")
            req.due = t
            out.append(req)
            n += 1
            if req.op == "predict" and rng.random() < self.w.dup_share:
                dup = Req(
                    id=f"{phase}-{n}", op=req.op, params=req.params,
                    machine=req.machine, key=req.key, due=t, repeat=True,
                )
                out.append(dup)
                n += 1
        t = 0.0
        while True:
            t += rng.exponential(1.0 / self.w.write_rate)
            if t >= duration:
                break
            machine = self.write_order[self._writes % len(self.write_order)]
            self._writes += 1
            req = self.extend(machine, f"{phase}-{n}")
            if req is None:
                continue
            req.due = t
            out.append(req)
            n += 1
        out.sort(key=lambda r: r.due)
        for i, req in enumerate(out):
            req.conn = i % 2
            if traced:
                req.trace = TraceContext.new_root().to_wire()
        return out

    def closed_stream(self, phase: str, conn: int, seed: int) -> Iterator[Req]:
        """Endless mix for one closed-loop connection.

        Each connection writes only its own half of the machines, so two
        extends of one machine are never in flight at once.
        """
        rng = np.random.default_rng([seed, 13, conn])
        own = [m for i, m in enumerate(self.write_order) if i % 2 == conn]
        n = 0
        k = 0
        while True:
            req = None
            if rng.random() < self.w.write_share:
                for _ in range(len(own)):
                    req = self.extend(own[k % len(own)], f"{phase}{conn}-{n}")
                    k += 1
                    if req is not None:
                        break
            if req is None:
                req = self.read(rng, f"{phase}{conn}-{n}")
            n += 1
            yield req
