"""Serving workloads: a ``repro serve`` subprocess driven open- and closed-loop.

Set-up runs the campaign loop's first half (one Table-2 sweep, spooled
and read back), fits and exports a model, boots ``python -m repro serve
--model <export> --port 0 --json`` as its own process, and builds a pool
of request bodies with the facade's client wire form
(``DiagnoseRequest(...).to_dict()``) plus, for each body, the offline
``repro.api.diagnose_records`` answer it must get back.

The load generator is one asyncio process (this one) with at most
``nproc`` keep-alive connections, so served numbers measure the server
alone:

* **open loop** -- seeded Poisson arrivals at a fixed absolute rate;
  latency is timed from each request's due time, so it includes any wait
  for a free connection;
* **saturation** -- every connection sends back to back; this gives
  ``records_per_s``.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import campaign as cp
from perfbench.common import (
    SETUP_REPEATS,
    LayerClock,
    Run,
    child_env,
    cpu_seconds,
    median,
    percentile,
    render_table,
    vm_hwm_mb,
)
from perfbench.replay import replay_metrics, traced_replay
from repro.api import (
    DiagnoseRequest,
    SessionInput,
    canonical_json,
    diagnose_records,
)
from repro.core.dataset import Dataset
from repro.core.diagnosis import RootCauseAnalyzer
from repro.obs import tracing
from repro.testbed.testbed import SessionRecord

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
#: keep-alive connections of the load generator (the box has 2 cores)
CONNECTIONS = 2
#: multiplicative jitter on every feature value, so no two bodies match
JITTER = 0.05


@dataclass(frozen=True)
class ServeWorkload:
    """What one serve workload sends and how fast."""

    records_per_request: int
    #: open-loop offered rate, requests/s, against the saturation this
    #: harness measured at the seed code with 2 connections on a shared
    #: 2-core box: single ~450-550 requests/s, bulk ~2.8k-4.4k records/s.
    #: Bulk runs at a third, not a half: the box's speed swings by up to
    #: 1.6x, and at half of a fast stretch's rate a slow stretch leaves the
    #: CPU-bound server ~80% busy, where latency measures the neighbours.
    rate_rps: float
    #: distinct request bodies, cycled through by both phases
    pool: int


WORKLOADS = {
    "serve_bulk": ServeWorkload(records_per_request=64, rate_rps=17.0, pool=16),
    "serve_single": ServeWorkload(records_per_request=1, rate_rps=210.0, pool=512),
}
#: share of ``--seconds`` given to the open-loop phase; the rest saturates
OPEN_SHARE = 0.8
#: seed of the open-loop arrival schedule.  The schedule is part of the
#: workload, like its rate: with a few hundred requests per phase, the tail
#: is set by the schedule's densest bursts, so a schedule drawn per run
#: would make it follow ``--seed`` rather than the server.  ``--seed``
#: picks the set-up campaign and the request bodies.
ARRIVAL_SEED = 20151201
WARMUP_S = 0.5
#: blocks each of the open-loop and saturation phases is cut into
BLOCKS = 5


# ------------------------------------------------------------------ server


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, stopped by SIGTERM."""

    def __init__(self, model: Path, log: Path) -> None:
        self._log = log.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(model),
             "--port", "0", "--json"],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=child_env(),
        )
        try:
            startup = json.loads(self.proc.stdout.readline())  # type: ignore[union-attr]
            self.port = int(startup["data"]["port"])
            self.version = str(startup["data"]["active"])
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _wait_ready(self) -> None:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while True:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode} at boot")
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def get(self, path: str) -> Tuple[int, Dict[str, object]]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def batcher_stats(self) -> Dict[str, int]:
        status, payload = self.get("/v1/models")
        if status != 200:
            raise RuntimeError(f"GET /v1/models answered {status}")
        return dict(payload["batcher"])  # type: ignore[call-overload]

    def stop(self) -> Optional[int]:
        """Drain by SIGTERM (kill after a timeout); returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


# ------------------------------------------------------------------ bodies


def make_bodies(
    records: Sequence[SessionRecord], workload: ServeWorkload, seed: int
) -> List[bytes]:
    """Distinct request bodies built from ``records`` with seeded jitter."""
    rng = np.random.default_rng(seed)
    bodies = []
    for _ in range(workload.pool):
        sessions = []
        for index in rng.integers(0, len(records), workload.records_per_request):
            record = records[int(index)]
            names = list(record.features)
            values = np.fromiter(record.features.values(), float, len(names))
            jittered = values * (1.0 + rng.uniform(-JITTER, JITTER, len(names)))
            # counts stay whole numbers, so a body keeps the byte size
            # and parse cost of a real upload
            values = np.where(values == np.round(values), np.round(jittered), jittered)
            sessions.append(SessionInput(
                features=dict(zip(names, values.tolist())), meta=dict(record.meta),
            ))
        payload = DiagnoseRequest(records=sessions).to_dict()  # type: ignore[arg-type]
        bodies.append(json.dumps(payload).encode("utf-8"))
    return bodies


def expected_diagnoses(analyzer: RootCauseAnalyzer, bodies: Sequence[bytes]) -> List[str]:
    """The offline answer for each body, as canonical JSON of its ``diagnoses``."""
    return [
        canonical_json(
            diagnose_records(analyzer, json.loads(body)["records"]).to_dict()["diagnoses"]
        )
        for body in bodies
    ]


# ------------------------------------------------------------------ client


class Connection:
    """One keep-alive HTTP/1.1 connection posting to ``/v1/diagnose``."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post(self, body: bytes) -> Tuple[int, bytes]:
        self.writer.write(
            b"POST /v1/diagnose HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


@dataclass
class Sent:
    """One request of a phase, as the load generator saw it."""

    body: int  # index into the body pool
    due: float
    start: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: no response (connection error)
    data: bytes = b""


@dataclass
class Phase:
    """One load phase: what was sent, and what the server did meanwhile."""

    name: str
    wall_s: float
    sent: List[Sent]
    cpu_s: float
    batcher: Dict[str, int]
    lag_max_s: float = 0.0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: (requests answered correctly, wall seconds) of each block
    blocks: List[Tuple[int, float]] = field(default_factory=list)

    def latencies_s(self) -> List[float]:
        """Per request from its due time; a failed request counts as the whole phase."""
        return [
            s.done - s.due if s.status == 200 else self.wall_s for s in self.sent
        ]

    def records_per_s(self, records_per_request: int) -> float:
        """Median over the phase's blocks of records answered per second."""
        return median([ok * records_per_request / wall for ok, wall in self.blocks])


def merge(phases: Sequence[Phase]) -> Phase:
    """One phase made of blocks run at different times."""
    keys = {key for phase in phases for key in phase.batcher}
    return Phase(
        name=phases[0].name,
        wall_s=sum(p.wall_s for p in phases),
        sent=[s for p in phases for s in p.sent],
        cpu_s=sum(p.cpu_s for p in phases),
        batcher={k: sum(p.batcher.get(k, 0) for p in phases) for k in sorted(keys)},
        lag_max_s=max(p.lag_max_s for p in phases),
        failed=sum(p.failed for p in phases),
        problems=[problem for p in phases for problem in p.problems],
        blocks=[block for p in phases for block in p.blocks],
    )


async def _send(conn: Connection, item: Sent, body: bytes) -> None:
    item.start = time.perf_counter()
    try:
        item.status, item.data = await conn.post(body)
    except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
        item.status = 0
    item.done = time.perf_counter()


async def _open_loop(
    conns: Sequence[Connection], bodies: Sequence[bytes], arrivals: Sequence[float]
) -> Tuple[List[Sent], float, float]:
    queue: "asyncio.Queue[Optional[Sent]]" = asyncio.Queue()
    sent: List[Sent] = []
    lag_max = 0.0
    start = time.perf_counter() + 0.01

    async def dispatch() -> None:
        nonlocal lag_max
        for i, offset in enumerate(arrivals):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag_max = max(lag_max, time.perf_counter() - due)
            item = Sent(body=i % len(bodies), due=due)
            sent.append(item)
            queue.put_nowait(item)
        for _ in conns:
            queue.put_nowait(None)

    async def work(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            await _send(conn, item, bodies[item.body])

    await asyncio.gather(dispatch(), *(work(conn) for conn in conns))
    return sent, time.perf_counter() - start, lag_max


async def _closed_loop(
    conns: Sequence[Connection], bodies: Sequence[bytes], seconds: float
) -> Tuple[List[Sent], float]:
    sent: List[Sent] = []
    start = time.perf_counter()
    end = start + seconds

    async def work(conn: Connection) -> None:
        while time.perf_counter() < end:
            item = Sent(body=len(sent) % len(bodies), due=time.perf_counter())
            sent.append(item)
            await _send(conn, item, bodies[item.body])

    await asyncio.gather(*(work(conn) for conn in conns))
    return sent, max(s.done for s in sent) - start


def poisson_arrivals(rate_rps: float, seconds: float, seed: int) -> List[float]:
    """Seeded Poisson arrival offsets in ``[0, seconds)``."""
    rng = random.Random(seed)
    arrivals: List[float] = []
    t = rng.expovariate(rate_rps)
    while t < seconds:
        arrivals.append(t)
        t += rng.expovariate(rate_rps)
    return arrivals


async def _phase(
    server: ServerProcess,
    conns: Sequence[Connection],
    name: str,
    bodies: Sequence[bytes],
    expected: Sequence[str],
    *,
    arrivals: Optional[Sequence[float]] = None,
    seconds: float = 0.0,
) -> Phase:
    """One open-loop (``arrivals``) or closed-loop (``seconds``) block, checked.

    The server's stats and CPU are read with blocking calls: nothing else
    is in flight between blocks.
    """
    stats0 = server.batcher_stats()
    cpu0 = cpu_seconds(server.pid)
    lag = 0.0
    # A full collection over the set-up's objects stalls the generator for
    # tens of milliseconds; the load loop itself makes no reference cycles.
    gc.disable()
    try:
        if arrivals is not None:
            sent, wall, lag = await _open_loop(conns, bodies, arrivals)
        else:
            sent, wall = await _closed_loop(conns, bodies, seconds)
    finally:
        gc.enable()
    cpu = cpu_seconds(server.pid) - cpu0
    stats1 = server.batcher_stats()
    delta = {key: stats1.get(key, 0) - stats0.get(key, 0) for key in stats1}
    phase = Phase(name=name, wall_s=wall, sent=sent, cpu_s=cpu, batcher=delta,
                  lag_max_s=lag)
    check_phase(phase, expected)
    phase.blocks = [(len(sent) - phase.failed, wall)]
    return phase


async def _load(
    server: ServerProcess,
    bodies: Sequence[bytes],
    expected: Sequence[str],
    rate_rps: float,
    open_s: float,
    saturation_s: float,
) -> List[Phase]:
    conns = [await Connection.open(server.port) for _ in range(CONNECTIONS)]
    try:
        warmup = await _phase(server, conns, "warmup", bodies, expected,
                              seconds=WARMUP_S)
        arrivals = poisson_arrivals(rate_rps, open_s, ARRIVAL_SEED)
        width = open_s / BLOCKS
        opens, saturations = [], []
        for k in range(BLOCKS):
            block = [t - k * width for t in arrivals
                     if k * width <= t < (k + 1) * width]
            opens.append(await _phase(server, conns, "open_loop", bodies, expected,
                                      arrivals=block))
            saturations.append(await _phase(server, conns, "saturation", bodies,
                                            expected, seconds=saturation_s / BLOCKS))
    finally:
        for conn in conns:
            await conn.close()
    return [warmup, merge(opens), merge(saturations)]


def run_load(
    server: ServerProcess,
    bodies: Sequence[bytes],
    expected: Sequence[str],
    rate_rps: float,
    open_s: float,
    saturation_s: float,
) -> List[Phase]:
    """Warm-up, then the open-loop and saturation phases in :data:`BLOCKS` blocks.

    The shared box changes speed every few seconds; alternating short
    blocks spreads both phases over the whole run, so neither lands in a
    single fast or slow stretch.  The open-loop schedule is one Poisson
    schedule over ``open_s`` cut into consecutive blocks.  The same
    keep-alive connections carry every block.
    """
    return asyncio.run(_load(server, bodies, expected, rate_rps, open_s,
                             saturation_s))


def check_phase(phase: Phase, expected: Sequence[str]) -> None:
    """Every response is a 200 whose ``diagnoses`` equal the offline answer."""
    statuses: Dict[int, int] = {}
    mismatched = 0
    for item in phase.sent:
        if item.status != 200:
            statuses[item.status] = statuses.get(item.status, 0) + 1
            continue
        try:
            diagnoses = json.loads(item.data)["diagnoses"]
        except (ValueError, KeyError, TypeError):
            diagnoses = None
        if canonical_json(diagnoses) != expected[item.body]:
            mismatched += 1
            item.status = -1  # answered, but wrong
    if statuses:
        phase.problems.append(f"{phase.name}: non-200 responses {statuses}")
    if mismatched:
        phase.problems.append(
            f"{phase.name}: {mismatched} responses differ from the offline diagnosis"
        )
    phase.failed = sum(statuses.values()) + mismatched


def phase_summary(phase: Phase, records_per_request: int) -> Dict[str, float]:
    """Everything one phase measured, for the report and the history."""
    n = len(phase.sent)
    ok = n - phase.failed
    latencies = phase.latencies_s()
    p99 = percentile(latencies, 99)
    waits = [s.start - s.due for s in phase.sent]
    batches = phase.batcher.get("batches", 0)
    flushes = phase.batcher.get("flush_timer", 0) + phase.batcher.get("flush_full", 0)
    return {
        "attempted": n,
        "succeeded": ok,
        "failed": phase.failed,
        "wall_s": phase.wall_s,
        "records_per_s": phase.records_per_s(records_per_request),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p99_ms": 1e3 * p99,
        "samples_beyond_p99": sum(1 for x in latencies if x > p99),
        "serve.cpu_ms_per_request": 1e3 * phase.cpu_s / n,
        "serve.busy_share": phase.cpu_s / phase.wall_s,
        "serve.records_per_batch": (
            phase.batcher.get("records", 0) / batches if batches else 0.0
        ),
        "serve.timer_flush_share": (
            phase.batcher.get("flush_timer", 0) / flushes if flushes else 0.0
        ),
        "loadgen.conn_wait_ms_p50": 1e3 * percentile(waits, 50),
        "loadgen.lag_ms_max": 1e3 * phase.lag_max_s,
    }


# ------------------------------------------------------------------ set-up


@dataclass
class Prepared:
    """A booted server with its bodies and their expected answers."""

    server: ServerProcess
    analyzer: RootCauseAnalyzer
    bodies: List[bytes]
    expected: List[str]
    seconds: float


def prepare(
    records: Sequence[SessionRecord],
    workload: ServeWorkload,
    seed: int,
    workdir: Path,
    clock: LayerClock,
    tag: int,
) -> Prepared:
    """Fit, export, boot to ``/readyz`` 200, build bodies and expected answers."""
    t0 = time.perf_counter()
    model = workdir / f"bench{tag}.json"
    with clock.span("core.fit"):
        fitted = RootCauseAnalyzer().fit(Dataset.from_records(records))
    with clock.span("core.export"):
        fitted.save(model)
    with clock.span("serve.boot"):
        server = ServerProcess(model, workdir / f"server{tag}.log")
    try:
        with clock.span("api.bodies"):
            bodies = make_bodies(records, workload, seed)
            analyzer = RootCauseAnalyzer.load(model)
            expected = expected_diagnoses(analyzer, bodies)
    except BaseException:
        server.stop()
        raise
    return Prepared(server, analyzer, bodies, expected, time.perf_counter() - t0)


# ------------------------------------------------------------------ workload


def run_workload(run: Run, name: str, seed: int, seconds: int, trace: bool,
                 work: Path) -> None:
    """One serve workload, untraced or traced."""
    spec = WORKLOADS[name]
    per_request = spec.records_per_request
    open_s = OPEN_SHARE * seconds
    run.details["params"] = {
        "records_per_request": per_request, "open_loop_rate_rps": spec.rate_rps,
        "open_loop_s": open_s, "saturation_s": seconds - open_s,
        "blocks": BLOCKS, "connections": CONNECTIONS, "body_pool": spec.pool,
        "setup_records": len(cp.CELLS),
    }
    clock = LayerClock(keep=[cp.TESTBED])
    configs = cp.sweep_configs(seed, 1)
    t0 = time.perf_counter()
    with tracing(enabled=trace) as tel:
        spooled = cp.spool_sweep(configs, work / "spool.jsonl", clock)
        spans = list(tel.spans)
    sweep_s = time.perf_counter() - t0
    run.phase("setup_campaign", len(configs), spooled.failed, spooled.problems)

    prepared: List[Prepared] = []
    try:
        for tag in range(SETUP_REPEATS):
            if prepared:
                prepared[-1].server.stop()
            prepared.append(prepare(spooled.records, spec, seed, work, clock, tag))
        prep = prepared[-1]
        if len(set(prep.bodies)) != len(prep.bodies):
            run.fail("request bodies are not all distinct")
        phases = run_load(prep.server, prep.bodies, prep.expected, spec.rate_rps,
                          open_s, seconds - open_s)
        peak_rss = vm_hwm_mb(prep.server.pid)
    finally:
        codes = [p.server.stop() for p in prepared]
    if codes[-1] != 0:
        run.fail(f"server exited {codes[-1]} after SIGTERM, want 0")

    summaries = {phase.name: phase_summary(phase, per_request) for phase in phases}
    for phase in phases:
        figures = {k: v for k, v in summaries[phase.name].items()
                   if k not in ("attempted", "succeeded", "failed")}
        run.phase(phase.name, len(phase.sent), phase.failed, phase.problems, **figures)
    open_loop, saturation = summaries["open_loop"], summaries["saturation"]
    if not trace:
        run.metrics.update({
            "setup_s": sweep_s + median([p.seconds for p in prepared]),
            "records_per_s": saturation["records_per_s"],
            "latency_p50_ms": open_loop["latency_p50_ms"],
            "latency_p99_ms": open_loop["latency_p99_ms"],
            "peak_rss_mb": peak_rss,
        })
        run.details["setup_runs_s"] = [sweep_s + p.seconds for p in prepared]
        return

    live_batch = max(1, round(open_loop["serve.records_per_batch"] / per_request))
    rclock = LayerClock()
    replayed, replay_s, overhead = traced_replay(
        prep.analyzer, prep.server.version, prep.bodies, live_batch, rclock)
    simnet = cp.simnet_metrics(spans)
    run.metrics.update({
        **cp.testbed_metrics(clock, spooled.records),
        "simnet.events_per_record": simnet["simnet.events_per_record"],
        "simnet.ns_per_event": simnet["simnet.ns_per_event"],
        **cp.pipeline_metrics(clock, spooled),
        **replay_metrics(rclock, replayed, prep.bodies, per_request),
        "obs.trace_overhead": overhead,
        # the saturation phase sets records_per_s; the open loop sets latency
        "serve.cpu_ms_per_request": saturation["serve.cpu_ms_per_request"],
        "serve.busy_share": saturation["serve.busy_share"],
        "serve.records_per_batch": open_loop["serve.records_per_batch"],
        "serve.timer_flush_share": open_loop["serve.timer_flush_share"],
        "loadgen.conn_wait_ms_p50": open_loop["loadgen.conn_wait_ms_p50"],
        "loadgen.lag_ms_max": open_loop["loadgen.lag_ms_max"],
    })
    setup_wall = sweep_s + sum(p.seconds for p in prepared)
    setup_rows = cp.split_simnet(clock.table(setup_wall), simnet["simnet.session_s"],
                                 setup_wall)
    replay_rows = rclock.table(replay_s)
    run.tables.append(render_table(
        f"{name} set-up (traced, {SETUP_REPEATS} boots)", setup_wall, setup_rows))
    run.tables.append(render_table(
        f"{name} request path replayed in-process ({replayed} records, "
        f"{live_batch} request(s) per diagnose_batch)", replay_s, replay_rows))
    run.details["tables"] = {"setup": setup_rows, "replay": replay_rows}
