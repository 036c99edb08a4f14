"""serve_open: ``repro serve`` driven by a single-process open-loop generator.

The server runs as its own process (``python -m repro.cli serve``, or
``serve_launcher.py`` when traced).  One asyncio loop in the benchmark
process keeps ``N_CONNECTIONS`` keep-alive connections and sends seeded
8-row ``/predict`` requests on a fixed schedule: a request due while both
connections are busy waits for one, and that wait counts, because every
latency is timed from the moment the request was due.  The generator
records how late it handed each request over; a run whose generator fell
behind is reported invalid and counts as failed.

Phases: a short warm-up, the reference rate (latency percentiles), then
rising rates to find the highest one that keeps p99 within the latency
limit with no failures and no backlog.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    CACHE_DIR,
    ROOT,
    SERVE_SETUPS,
    child_env,
    median,
    percentile,
    tail,
    tree_peak_rss_mb,
)

ROWS_PER_REQUEST = 8
POOL_REQUESTS = 1024
N_CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
REFERENCE_RATE = 150.0  # requests/s, below saturation
LATENCY_LIMIT_S = 0.050  # the `--check-latency 50` p99 limit
RAMP_START = 180.0
RAMP_FACTOR = 1.15
RAMP_BISECTIONS = 3
WARMUP_SECONDS = 0.5
REQUEST_TIMEOUT_S = 10.0
# The generator has fallen behind when its median hand-over lateness in a
# phase exceeds this (a tenth of the latency limit); jitter spikes do not count.
MAX_LATENESS_S = 0.005
SERVER_START_TIMEOUT_S = 60.0


# --------------------------------------------------------------- HTTP client
class Connection:
    """One keep-alive HTTP/1.1 connection speaking just enough for /predict."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.writer = None

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length, keep = 0, True
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                keep = value.strip().lower() != "close"
        payload = await self.reader.readexactly(length) if length else b""
        if not keep:
            await self.close()
        return status, payload


# ------------------------------------------------------------------ requests
class Pool:
    """Seeded request bodies and the bulk-path answers they must get back."""

    def __init__(self, path) -> None:
        import numpy as np

        with np.load(path) as archive:
            rows, self.proba, self.labels = archive["rows"], archive["proba"], archive["labels"]
        self.expected = np.argmax(self.proba, axis=1).tolist()
        self.bodies = [
            json.dumps(
                {"rows": rows[k : k + ROWS_PER_REQUEST].tolist(), "proba": True},
                separators=(",", ":"),
            ).encode("utf-8")
            for k in range(0, rows.shape[0], ROWS_PER_REQUEST)
        ]

    def check(self, index: int, payload: bytes) -> Optional[List[List[float]]]:
        """The served probabilities if the predictions match, else ``None``."""
        doc = json.loads(payload)
        lo = index * ROWS_PER_REQUEST
        if doc.get("predictions") != self.expected[lo : lo + ROWS_PER_REQUEST]:
            return None
        return doc.get("probabilities")


class Phase:
    """Outcome of one fixed-rate open-loop phase."""

    def __init__(self, rate: float, n: int) -> None:
        self.rate = rate
        self.due = [0.0] * n
        self.done = [0.0] * n
        self.ok = [False] * n
        self.lateness: List[float] = []
        self.served: List[Tuple[int, list]] = []
        self.end = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def latencies(self) -> List[float]:
        return [d - s for s, d, ok in zip(self.due, self.done, self.ok) if ok]

    def backlog(self) -> int:
        """Requests due more than the latency limit before the phase ended
        that were still unanswered when it ended."""
        cutoff = self.end - LATENCY_LIMIT_S
        return sum(1 for s, d in zip(self.due, self.done) if s <= cutoff and d > self.end)

    def generator_late(self) -> float:
        return median(self.lateness)

    def passes(self) -> bool:
        lat = self.latencies()
        return (
            self.failed == 0
            and bool(lat)
            and percentile(lat, 99) <= LATENCY_LIMIT_S
            and self.backlog() == 0
        )

    def achieved_rate(self) -> float:
        return self.attempted / max(max(self.done) - self.due[0], 1e-9)


async def run_phase(
    conns: List[Connection], pool: Pool, rate: float, seconds: float, offset: int
) -> Phase:
    loop = asyncio.get_running_loop()
    n = max(1, int(round(rate * seconds)))
    phase = Phase(rate, n)
    queue: asyncio.Queue = asyncio.Queue()

    async def schedule() -> None:
        t0 = loop.time() + 0.005
        for i in range(n):
            due = t0 + i / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lateness.append(loop.time() - due)
            phase.due[i] = due
            queue.put_nowait(i)
        phase.end = t0 + n / rate
        for _ in conns:
            queue.put_nowait(None)

    async def send(conn: Connection) -> None:
        while True:
            i = await queue.get()
            if i is None:
                return
            k = (offset + i) % len(pool.bodies)
            try:
                status, payload = await asyncio.wait_for(
                    conn.request("POST", "/predict", pool.bodies[k]), REQUEST_TIMEOUT_S
                )
                probabilities = pool.check(k, payload) if status == 200 else None
            except (OSError, ValueError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                probabilities = None
                await conn.close()
            phase.done[i] = loop.time()
            if probabilities is not None:
                phase.ok[i] = True
                phase.served.append((k, probabilities))

    await asyncio.gather(schedule(), *(send(c) for c in conns))
    return phase


async def drive(host: str, port: int, pool: Pool, seconds: float, ramp: bool) -> Dict:
    conns = [Connection(host, port) for _ in range(N_CONNECTIONS)]
    try:
        for conn in conns:
            await conn.open()
        warmup = await run_phase(conns, pool, REFERENCE_RATE, WARMUP_SECONDS, 0)
        reference_seconds = seconds * (0.5 if ramp else 1.0)
        reference = await run_phase(
            conns, pool, REFERENCE_RATE, reference_seconds, warmup.attempted
        )
        status, metrics = await conns[0].request("GET", "/metrics")
        server_metrics = json.loads(metrics) if status == 200 else {}
        steps: List[Phase] = []
        if ramp:
            step_seconds = seconds * 0.5 / (6 + RAMP_BISECTIONS)
            offset = warmup.attempted + reference.attempted
            rate, best, worst = RAMP_START, None, None
            while worst is None and rate < 10 * RAMP_START:
                step = await run_phase(conns, pool, rate, step_seconds, offset)
                steps.append(step)
                offset += step.attempted
                if step.passes():
                    best, rate = step, rate * RAMP_FACTOR
                else:
                    worst = step
            for _ in range(RAMP_BISECTIONS if worst is not None else 0):
                low = best.rate if best is not None else REFERENCE_RATE
                step = await run_phase(conns, pool, (low + worst.rate) / 2, step_seconds, offset)
                steps.append(step)
                offset += step.attempted
                if step.passes():
                    best = step
                else:
                    worst = step
        return {
            "warmup": warmup,
            "reference": reference,
            "steps": steps,
            "server_metrics": server_metrics,
        }
    finally:
        for conn in conns:
            await conn.close()


# ------------------------------------------------------------------- server
class Server:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, model_path, trace_out: Optional[str] = None) -> None:
        serve_args = ["--model", str(model_path), "--port", "0", "--quiet"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            launcher = str(BENCH_DIR / "serve_launcher.py")
            cmd = [sys.executable, launcher, "--trace-out", trace_out, "--", *serve_args]
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            self.host, self.port = self._wait_until_serving()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - launched

    def _wait_until_serving(self) -> Tuple[str, int]:
        """Parse the banner's URL, then wait for ``/healthz``: answering it means
        the server loop runs with its signal handlers installed."""
        banner = self._read_banner()
        url = re.search(r"on http://([^:\s]+):(\d+)", banner)
        if url is None:
            raise RuntimeError(f"unexpected serve banner: {banner!r}")
        host, port = url.group(1), int(url.group(2))
        conn = http.client.HTTPConnection(host, port, timeout=SERVER_START_TIMEOUT_S)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status != 200:
                raise RuntimeError("repro serve is not healthy")
        finally:
            conn.close()
        return host, port

    def _read_banner(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if selector.select(timeout=0.05):
                    line = self.proc.stdout.readline()
                    if not line:
                        break
                    if "serving " in line:
                        return line
        raise RuntimeError("repro serve did not start listening")

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def session(model_path, pool: Pool, seconds: float, ramp: bool, trace_out=None) -> Dict:
    server = Server(model_path, trace_out=trace_out)
    try:
        outcome = asyncio.run(drive(server.host, server.port, pool, seconds, ramp))
        outcome["setup_s"] = server.setup_s
        outcome["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    return outcome


def run_serve(seed: int, seconds: float, trace: bool, model_path, pool_path) -> Dict[str, object]:
    """The serve_open workload; returns the same result shape as the children."""
    pool = Pool(pool_path)
    if trace:
        return traced_serve(seconds, model_path, pool)
    setups = []
    for _ in range(SERVE_SETUPS - 1):
        probe = Server(model_path)
        setups.append(probe.setup_s)
        probe.stop()
    outcome = session(model_path, pool, seconds, ramp=True)
    setups.append(outcome["setup_s"])
    reference: Phase = outcome["reference"]
    phases = [outcome["warmup"], reference, *outcome["steps"]]
    late = max(p.generator_late() for p in phases)
    valid = late <= MAX_LATENESS_S
    passing = [p for p in outcome["steps"] if p.passes()]
    best = max(passing, key=lambda p: p.rate) if passing else reference
    latencies = reference.latencies()
    if not latencies:
        raise RuntimeError("no request of the reference phase succeeded")
    latency_tail, q = tail(latencies)
    return {
        "setup_samples": setups,
        "attempted": sum(p.attempted for p in phases),
        # A generator that fell behind did not offer the load: one failure.
        "failed": sum(p.failed for p in phases) + (0 if valid else 1),
        "latency_p50_s": median(latencies),
        "latency_tail_s": latency_tail,
        "latency_p90_s": percentile(latencies, 90),
        "latency_p99_s": percentile(latencies, 99),
        "tail_q": q,
        "samples": len(latencies),
        "max_rate": best.achieved_rate(),
        "steps": [(round(p.rate, 1), p.passes()) for p in outcome["steps"]],
        "generator_late_s": late,
        "generator_valid": valid,
        "served": sorted(reference.served, key=lambda kv: kv[0]),
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def traced_serve(seconds: float, model_path, pool: Pool) -> Dict[str, object]:
    """Reference phase against an untraced server, then against a traced one."""
    from tracer import SpanIndex, load_spans

    untraced = session(model_path, pool, seconds / 2, ramp=False)
    trace_out = str(CACHE_DIR / "trace-serve_open.json")
    traced = session(model_path, pool, seconds / 2, ramp=False, trace_out=trace_out)
    index = SpanIndex(load_spans(trace_out))
    base = median(untraced["reference"].latencies())
    with_trace = median(traced["reference"].latencies())
    server = traced["server_metrics"]
    statuses = server.get("responses_by_status", {})
    calls = index.calls("serving.run_batch")
    waits = [w for s in index.named("serving.batcher.collect") for w in (s[6] or {}).get("waits", [])]
    from workloads import op_metrics, setup_metrics

    metrics = op_metrics(index, 1)
    metrics.update(setup_metrics(index))
    metrics.update({
        "serving.run_batch.rows_mean": index.attr_sum("serving.run_batch", "rows") / calls
        if calls else 0.0,
        "serving.batcher.queue_wait_ms": 1e3 * median(waits) if waits else 0.0,
        "serving.server_latency_p50_ms": server.get("predict_latency_ms", {}).get("p50", 0.0),
        "serving.server_latency_p99_ms": server.get("predict_latency_ms", {}).get("p99", 0.0),
        "serving.requests_failed": float(sum(v for k, v in statuses.items() if k != "200")),
        "serving.requests_rejected": float(statuses.get("503", 0)),
        "serving.client_latency_p50_ms": 1e3 * with_trace,
        "trace.overhead_pct": 100.0 * (with_trace - base) / base,
        "trace.spans": len(index.spans),
    })
    phases = [untraced["warmup"], untraced["reference"], traced["warmup"], traced["reference"]]
    return {
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "layers": metrics,
    }
