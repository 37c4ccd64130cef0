"""The ``daemon-live`` workload: ``repro serve`` under an open loop.

One client thread submits jobs over one keep-alive connection at a fixed
rate (an open loop: each submission has a due time, whatever happened to
the last one) and, between submissions, reads a second connection that
holds the daemon's ``/events`` SSE stream.  Latencies are timed from the
due time, so a stall also charges the submissions queued behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import socket
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from loadbench import checks
from loadbench.stats import enough_setups, quantile

from repro.workload.generator import GeneratorConfig, WorkloadGenerator
from repro.workload.manifest import job_to_dict

LAUNCHER = Path(__file__).resolve().parent / "launch.py"

#: (machines, submissions per second)
FULL = (50, 70.0)
QUICK = (4, 40.0)
WARMUP_ID = "warmup-0"
#: with two CPUs or more, the client and the daemon each get one of
#: their own, so they do not contend for a CPU
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU, DAEMON_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) > 1 else (None, None)


class Daemon:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, machines: int, out_dir: Path, trace: bool) -> None:
        self.db = out_dir / "daemon-live.db"
        for suffix in ("", "-wal", "-shm"):
            Path(f"{self.db}{suffix}").unlink(missing_ok=True)
        self.out = out_dir / ("daemon-live.spans.npz" if trace else "daemon-live.rounds.npy")
        self.out.unlink(missing_ok=True)
        cmd = [
            sys.executable, "-u", str(LAUNCHER), "--out", str(self.out),
            *(["--trace"] if trace else []),
            *(["--cpu", str(DAEMON_CPU)] if DAEMON_CPU is not None else []),
            "--", "serve", "--machines", str(machines),
            "--scheduler", "TOPO-AWARE", "--port", "0", "--store", str(self.db),
        ]
        self.log = open(out_dir / "daemon-live.log", "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, stdin=subprocess.DEVNULL
        )
        self.port = self._read_port(timeout=60.0)
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        line = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.1)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                line += chunk
                if b"listening on http://" in line and b"\n" in line.split(b"listening on ", 1)[1]:
                    url = line.split(b"listening on ", 1)[1].split()[0].decode()
                    return int(url.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("daemon did not report its port")

    def request(self, method: str, path: str, doc: dict | None = None):
        body = None if doc is None else json.dumps(doc)
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        return resp.status, json.loads(data) if data else None

    def wait_state(self, job_id: str, state: str, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            code, doc = self.request("GET", f"/jobs/{job_id}")
            if code == 200 and doc["state"] == state:
                return
            time.sleep(0.005)
        raise RuntimeError(f"{job_id} did not reach {state}")

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def stop(self) -> None:
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def start_daemon(machines: int, out_dir: Path, trace: bool) -> tuple[Daemon, float]:
    """Spawn, wait for ``/healthz``, and run one warm-up job to FINISHED
    (the loop thread builds the distance tables on its first placement)."""
    t0 = time.perf_counter()
    daemon = Daemon(machines, out_dir, trace)
    try:
        deadline = time.monotonic() + 60
        while daemon.request("GET", "/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.01)
        warm = job_to_dict(
            WorkloadGenerator(GeneratorConfig(), seed=0).generate(1)[0]
        )
        warm["id"] = WARMUP_ID
        code, _ = daemon.request("POST", "/submit", warm)
        if code != 202:
            raise RuntimeError(f"warm-up submission answered {code}")
        daemon.wait_state(WARMUP_ID, "FINISHED")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - t0


class SSEWatcher:
    """Reads the ``/events`` stream into ``(id, event, data)`` frames.

    :meth:`drain` only buffers bytes, so that reading the stream during
    the open loop costs the client as little as possible; :meth:`parse`
    decodes what has arrived.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.sendall(b"GET /events HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
        self.chunks: list[bytes] = []
        self.buf = b""
        self.headers_done = False
        self.frames: list[tuple[int, str, str]] = []
        self.finished: set[str] = set()

    def drain(self, timeout: float) -> None:
        """Buffer whatever arrives within ``timeout`` seconds."""
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        while ready:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                break
            self.chunks.append(chunk)
            ready, _, _ = select.select([self.sock], [], [], 0)

    def parse(self) -> None:
        self.buf += b"".join(self.chunks)
        self.chunks.clear()
        if not self.headers_done:
            if b"\r\n\r\n" not in self.buf:
                return
            self.buf = self.buf.split(b"\r\n\r\n", 1)[1]
            self.headers_done = True
        *complete, self.buf = self.buf.split(b"\n\n")
        for raw in complete:
            fields = {}
            for line in raw.decode().split("\n"):
                if line.startswith(":"):
                    continue  # comment: stream-open or keepalive
                key, _, value = line.partition(": ")
                fields[key] = value
            if "id" not in fields:
                continue
            event, data = fields.get("event", ""), fields.get("data", "")
            self.frames.append((int(fields["id"]), event, data))
            if event == "job" and '"FINISHED"' in data:
                self.finished.add(json.loads(data)["job_id"])

    def close(self) -> None:
        self.sock.close()


def open_loop(daemon: Daemon, watcher: SSEWatcher, docs, rate: float):
    """Submit ``docs`` at ``rate`` per second; returns per-submission
    ``(status, latency from due time, lateness of the send)``."""
    clock = time.perf_counter
    out = []
    start = clock()
    for i, doc in enumerate(docs):
        due = start + i / rate
        while True:
            wait = due - clock()
            if wait <= 0:
                break
            watcher.drain(wait)
        sent = clock()
        code, _ = daemon.request("POST", "/submit", doc)
        out.append((code, clock() - due, sent - due))
    return start, out


def read_journal(db: Path):
    con = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        return con.execute(
            "SELECT job_id, from_state, to_state, wall FROM transitions ORDER BY seq"
        ).fetchall()
    finally:
        con.close()


def session(daemon, rate, seconds, seed):
    """Run the open loop against a started daemon, then stop it."""
    try:
        return _session(daemon, rate, seconds, seed)
    finally:
        daemon.stop()


def _session(daemon, rate, seconds, seed):
    n = max(1, round(rate * seconds))
    docs = [
        job_to_dict(j)
        for j in WorkloadGenerator(GeneratorConfig(), seed=seed).generate(n, id_prefix="j")
    ]
    ids = [d["id"] for d in docs]
    watcher = SSEWatcher(daemon.port)
    try:
        watcher.drain(0.2)
        cpu0 = daemon.cpu_s()
        start, answers = open_loop(daemon, watcher, docs, rate)
        deadline = time.monotonic() + 60
        while not set(ids) <= watcher.finished and time.monotonic() < deadline:
            watcher.drain(0.05)
            watcher.parse()
        done = time.perf_counter()
        cpu1 = daemon.cpu_s()
        watcher.drain(0.2)
        watcher.parse()
    finally:
        watcher.close()
    code, jobs_doc = daemon.request("GET", "/jobs")
    records = {}
    for job_id in ids:
        c, doc = daemon.request("GET", f"/jobs/{job_id}")
        if c == 200 and "record" in doc:
            records[job_id] = doc["record"]
    rss = daemon.peak_rss_mb()
    return {
        "ids": ids,
        "answers": answers,
        "start": start,
        "done": done,
        "cpu_s": cpu1 - cpu0,
        "jobs_doc": jobs_doc if code == 200 else {},
        "records": records,
        "frames": watcher.frames,
        "rss": rss,
    }


def check(data, transitions) -> tuple[set[str], list[str]]:
    ids = data["ids"]
    bad = {i for i, (code, _, _) in zip(ids, data["answers"]) if code != 202}
    timed = set(ids)
    bad |= checks.journal_paths(
        [t for t in transitions if t[0] in timed], ids
    )
    bad |= checks.jobs_agree(data["jobs_doc"], transitions)
    frames = [
        (i, e, json.loads(d)) for i, e, d in data["frames"] if e == "decision"
    ]
    sse_bad, increasing = checks.sse_placements(
        [f for f in frames if f[2]["job_id"] in timed], ids
    )
    bad |= sse_bad
    recs = data["records"]
    bad |= timed - set(recs)
    intervals = [
        (j, g, r["placed_at"], r["finished_at"])
        for j, r in recs.items()
        if r["placed_at"] is not None and r["finished_at"] is not None
        for g in r["gpus"]
    ]
    bad |= checks.gpu_overlaps(intervals)
    bad |= checks.record_times(
        {
            "id": j,
            "arrival": r["arrival"],
            "placed_at": r["placed_at"],
            "finished_at": r["finished_at"],
            "solo": r["solo_exec_time"],
            "ideal": r["ideal_exec_time"],
            "evicted": bool(r["preemptions"]),
        }
        for j, r in recs.items()
    )
    return bad, [] if increasing else ["SSE ids not increasing"]


def run(name, seed, seconds, trace, quick, out_dir):
    machines, rate = QUICK if quick else FULL
    if DAEMON_CPU is not None:
        os.sched_setaffinity(0, {CLIENT_CPU})
    if trace:
        # an untraced session first: the traced one is compared with it
        plain = session(start_daemon(machines, out_dir, False)[0], rate, seconds / 2, seed)
        daemon = start_daemon(machines, out_dir, True)[0]
        data = session(daemon, rate, seconds / 2, seed)
    else:
        setups = []
        while True:
            daemon, setup_s = start_daemon(machines, out_dir, False)
            setups.append(setup_s)
            if enough_setups(setups):
                break
            daemon.stop()
        data = session(daemon, rate, seconds, seed)
    transitions = read_journal(daemon.db)
    bad, problems = check(data, transitions)
    ids = data["ids"]
    info = {
        "jobs": len(ids),
        "problems": problems,
        "frames": len(data["frames"]),
        "late_ms_p50": 1e3 * quantile([a[2] for a in data["answers"]], 0.5),
        "late_ms_p99": 1e3 * quantile([a[2] for a in data["answers"]], 0.99),
        "late_ms_max": 1e3 * max(a[2] for a in data["answers"]),
    }
    if trace:
        from loadbench.layers import layer_metrics, self_time_table
        from loadbench.tracer import Spans

        spans = Spans(daemon.out)
        # the matrix is built during set-up, by the warm-up job
        matrix_s = spans.total("topology.matrix_build")
        spans.restrict(data["start"], data["done"])
        metrics = layer_metrics(spans, 1, None)
        metrics["topology.matrix_build_s"] = matrix_s
        metrics["trace.overhead_ratio"] = (
            data["cpu_s"] / len(ids)) / (plain["cpu_s"] / len(plain["ids"])
        )
        info["layers"] = self_time_table(spans, 1)
        return not problems, len(ids), len(bad), metrics, info

    walls: dict[str, dict[str, float]] = {}
    for job_id, _frm, to, wall in transitions:
        walls.setdefault(job_id, {})[to] = wall
    start_lat = [
        walls[j]["RUNNING"] - walls[j]["SUBMITTED"]
        for j in ids
        if "RUNNING" in walls.get(j, {}) and "SUBMITTED" in walls.get(j, {})
    ]
    submit_lat = [a[1] for a in data["answers"]]
    rounds = np.load(daemon.out).tolist()
    recs = [r for r in data["records"].values() if r["finished_at"] is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": data["rss"],
        "jobs_per_s": len(ids) / (data["done"] - data["start"]),
        "round_ms_p50": 1e3 * quantile(rounds, 0.50),
        "sim_makespan_s": max(r["finished_at"] for r in recs),
        "sim_slowdown_mean": statistics.fmean(
            (r["finished_at"] - r["arrival"]) / r["ideal_exec_time"] for r in recs
        ),
        "start_ms_p50": 1e3 * quantile(start_lat, 0.50),
        "cpu_ms_per_job": 1e3 * data["cpu_s"] / len(ids),
    }
    info["round_samples"] = len(rounds)
    info["round_ms_p99"] = 1e3 * quantile(rounds, 0.99)
    info["submit_ms_p50"] = 1e3 * quantile(submit_lat, 0.50)
    info["submit_ms_p99"] = 1e3 * quantile(submit_lat, 0.99)
    info["start_ms_p99"] = 1e3 * quantile(start_lat, 0.99)
    return not problems, len(ids), len(bad), metrics, info
