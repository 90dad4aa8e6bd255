"""Launching and stopping the real serving entry points.

``repro serve`` and ``repro cluster start`` run as their own processes
(in their own session, so a stuck cluster can be killed as a group).
Set-up time is measured from ``Popen`` to the first ``ok`` health answer.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.protocol import Request, Response

from workloads import Workload

HOST = "127.0.0.1"


def health(port: int, timeout_s: float = 2.0) -> dict | None:
    """One health round trip; None when nothing answers."""
    try:
        with socket.create_connection((HOST, port), timeout=timeout_s) as sock:
            sock.sendall(Request(op="health", id="h").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                part = sock.recv(65536)
                if not part:
                    return None
                buf += part
    except OSError:
        return None
    resp = Response.decode(buf)
    return resp.result if resp.ok else None


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of one process (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Deployment:
    """One serving deployment of a workload inside a work directory."""

    def __init__(self, w: Workload, work: Path, src: Path, *, traced: bool) -> None:
        self.w = w
        self.work = work
        self.traced = traced
        # A fixed hash seed keeps set/dict iteration order, and so the
        # servers' work, identical from run to run.
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.port_file = work / "port.txt"
        self.metrics_out = work / "metrics.json"
        self.trace_out = work / "trace.jsonl"
        self.data = work / "cluster"
        self.log = work / "server.log"

    # -- command lines --------------------------------------------------- #

    def argv(self) -> list[str]:
        w = self.w
        py = [sys.executable, "-m", "repro"]
        if w.cluster:
            argv = py + [
                "cluster", "start", "--nodes", "2", "--replicas", "2",
                "--port", "0", "--port-file", str(self.port_file),
                "--data", str(self.data), "--audit",
                "--metrics-out", str(self.metrics_out),
            ]
        else:
            argv = py + [
                "serve", "--port", "0", "--port-file", str(self.port_file),
                "--workers", "2", "--metrics-out", str(self.metrics_out),
            ]
            if w.store:
                argv += ["--store", str(self.work / "store"), "--fsync", "always"]
            else:
                argv += ["--traces", str(self.work / "traces")]
            argv += ["--audit-dir", str(self.work / "audit")]
        if self.traced:
            argv += ["--trace-out", str(self.trace_out)]
        return argv

    # -- lifecycle ------------------------------------------------------- #

    def launch(self, timeout_s: float = 60.0) -> float:
        """Start the deployment; returns seconds until the first ok health."""
        self.port_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                self.argv(), cwd=self.work, env=self.env,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        deadline = t0 + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}; see {self.log}"
                )
            if not self.port:
                try:
                    self.port = int(self.port_file.read_text().strip())
                except (OSError, ValueError):
                    time.sleep(0.005)
                    continue
            state = health(self.port)
            if state is not None and state.get("status") == "ok":
                return time.perf_counter() - t0
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy within {timeout_s}s; see {self.log}")

    def pids(self) -> list[int]:
        """Every serving process: the node, or the router plus backends."""
        assert self.proc is not None
        pids = [self.proc.pid]
        if self.w.cluster:
            spec = json.loads((self.data / "cluster.json").read_text())
            pids += [int(n["pid"]) for n in spec["nodes"]]
        return pids

    def backend_port(self, node_id: str) -> int:
        spec = json.loads((self.data / "cluster.json").read_text())
        for node in spec["nodes"]:
            if node["node_id"] == node_id:
                return int(node["port"])
        raise KeyError(node_id)

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids())

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGTERM drain; kills the process group if it does not finish."""
        proc, self.proc, self.port = self.proc, None, 0
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return proc.wait()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray backends, if any
            except ProcessLookupError:
                pass

    # -- server-side outputs ---------------------------------------------- #

    def snapshot_files(self) -> list[Path]:
        """Metrics snapshots of the serving processes (after stop)."""
        files = [self.metrics_out]
        if self.w.cluster:
            files += sorted(self.data.glob("node-*/metrics.json"))
        return [f for f in files if f.exists()]

    def span_files(self) -> list[Path]:
        files = [self.trace_out]
        if self.w.cluster:
            files += sorted(self.data.glob("node-*/trace.jsonl"))
        return [f for f in files if f.exists()]


def build_store(src: Path, traces: Path, store: Path) -> None:
    """Ingest the base testbed into a trace store (not timed)."""
    subprocess.run(
        [sys.executable, "-m", "repro", "store", "ingest", str(store),
         "--traces", str(traces), "--fsync", "never"],
        check=True, stdout=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
