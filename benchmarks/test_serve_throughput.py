"""Serving-layer load benchmark with a committed baseline.

Boots a real :class:`DiagnosisServer` (own event loop in a background
thread) and drives it closed-loop over keep-alive sockets from an
asyncio load generator: N concurrent connections, each posting one
``repro-diagnose-request-v1`` record and waiting for its response.
That shape is the worst case for the micro-batcher — every request is
a single record, so any batching comes from the loop-turn rule alone:
the requests of every connection the server's loop wakes in one turn
share one ``diagnose_batch`` call.  The report gives records per batch
and flushes by reason (turn / full / drain) for the 1-record and the
64-record sweep, read from the server's batcher stats.

Results land twice: ``benchmarks/reports/serve_throughput.txt`` for
humans and ``BENCH_serve.json`` at the repo root for machines.  The run
*fails* below the acceptance floor (``REPRO_SERVE_RPS_MIN``, default
1000 req/s, and ``REPRO_SERVE_P99_MAX_MS``, default 100 ms); against
the committed JSON it only *reports* the trend — load numbers wobble
across CI machines, so the baseline delta is informational.  Workload
knobs: ``REPRO_SERVE_BENCH_SECONDS``, ``REPRO_SERVE_BENCH_CONNS``.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import threading
import time
from pathlib import Path

from repro.api import REQUEST_SCHEMA
from repro.core.dataset import Dataset
from repro.core.diagnosis import RootCauseAnalyzer
from repro.pipeline.records import record_to_dict
from repro.serve import DiagnosisServer, ModelRegistry, ServeConfig
from repro.testbed.campaign import CampaignConfig, run_campaign

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_serve.json"

WARMUP_S = 0.5


class _ServerThread:
    """A DiagnosisServer on its own loop, drained on close."""

    def __init__(self, analyzer: RootCauseAnalyzer, config: ServeConfig):
        registry = ModelRegistry()
        registry.register("bench", analyzer)
        self._config = config
        self._registry = registry
        self._started = threading.Event()
        self._stop: asyncio.Event
        self._loop: asyncio.AbstractEventLoop
        self.server: DiagnosisServer
        self.port = 0
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()), daemon=True
        )

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = DiagnosisServer(self._registry, self._config)
        await self.server.start()
        self.port = self.server.port
        self._stop = asyncio.Event()
        self._started.set()
        await self._stop.wait()
        await self.server.drain()

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._started.wait(30), "server failed to start"
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


def _request_bytes(records) -> bytes:
    payload = json.dumps(
        {"schema": REQUEST_SCHEMA,
         "records": [record_to_dict(r) for r in records]}
    ).encode()
    head = (
        "POST /v1/diagnose HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode() + payload


async def _client(port, request, latencies, deadline):
    """One closed-loop keep-alive connection; appends per-request seconds."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        while time.perf_counter() < deadline:
            t0 = time.perf_counter()
            writer.write(request)
            await writer.drain()
            status_line = await reader.readline()
            assert b" 200 " in status_line, status_line
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            await reader.readexactly(length)
            latencies.append(time.perf_counter() - t0)
    finally:
        writer.close()


async def _drive(port, request, connections, duration_s):
    """Run the closed-loop fleet for ``duration_s``; returns (latencies, wall)."""
    latencies: list = []
    start = time.perf_counter()
    deadline = start + duration_s
    await asyncio.gather(*(
        _client(port, request, latencies, deadline)
        for _ in range(connections)
    ))
    return latencies, time.perf_counter() - start


def _measure(server, request, connections, duration_s):
    """One measured sweep: latencies, wall time, and how it was batched."""
    before = dict(server.server.batcher.stats)
    latencies, wall_s = asyncio.run(
        _drive(server.port, request, connections, duration_s)
    )
    after = dict(server.server.batcher.stats)
    delta = {key: after[key] - before[key] for key in after}
    batching = {
        "records_per_batch": (
            round(delta["records"] / delta["batches"], 2)
            if delta["batches"] else 0.0
        ),
        "batches": delta["batches"],
        "flushes": {reason: delta[f"flush_{reason}"]
                    for reason in ("turn", "full", "drain")},
    }
    return latencies, wall_s, batching


def _batching_line(batching) -> str:
    flushes = batching["flushes"]
    return (
        f"{batching['records_per_batch']:.2f} records/batch over "
        f"{batching['batches']} batches; flushes turn {flushes['turn']}, "
        f"full {flushes['full']}, drain {flushes['drain']}"
    )


def _percentile(sorted_values, q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def test_serve_throughput(report):
    duration_s = float(os.environ.get("REPRO_SERVE_BENCH_SECONDS", "2.0"))
    connections = int(os.environ.get("REPRO_SERVE_BENCH_CONNS", "32"))
    rps_min = float(os.environ.get("REPRO_SERVE_RPS_MIN", "1000"))
    p99_max_ms = float(os.environ.get("REPRO_SERVE_P99_MAX_MS", "100"))
    baseline = (
        json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else None
    )

    records = run_campaign(CampaignConfig(
        n_instances=24, seed=77, video_duration_range=(10.0, 14.0),
    ))
    analyzer = RootCauseAnalyzer().fit(Dataset.from_records(records))
    request = _request_bytes(records[:1])
    # 64-record payloads: the fleet-upload shape, where one request
    # carries a whole probe batch and the compiled columnar plan does
    # the work — measured as rows/s rather than req/s
    sweep_records = 64
    bulk_request = _request_bytes(
        (records * (sweep_records // len(records) + 1))[:sweep_records]
    )
    config = ServeConfig(port=0, max_batch=64)

    with _ServerThread(analyzer, config) as server:
        asyncio.run(_drive(server.port, request, connections, WARMUP_S))
        latencies, wall_s, batching = _measure(
            server, request, connections, duration_s
        )
        asyncio.run(_drive(server.port, bulk_request, connections, WARMUP_S))
        bulk_latencies, bulk_wall_s, bulk_batching = _measure(
            server, bulk_request, connections, duration_s
        )

    assert latencies, "load generator completed no requests"
    latencies.sort()
    rps = len(latencies) / wall_s
    p50_ms = _percentile(latencies, 0.50) * 1e3
    p99_ms = _percentile(latencies, 0.99) * 1e3

    assert bulk_latencies, "bulk load generator completed no requests"
    bulk_latencies.sort()
    bulk_rps = len(bulk_latencies) / bulk_wall_s
    bulk_rows_per_s = bulk_rps * sweep_records
    bulk_p99_ms = _percentile(bulk_latencies, 0.99) * 1e3

    result = {
        "schema": 1,
        "rps": round(rps, 1),
        "p50_ms": round(p50_ms, 3),
        "p99_ms": round(p99_ms, 3),
        "requests": len(latencies),
        "duration_s": round(wall_s, 3),
        "connections": connections,
        "max_batch": config.max_batch,
        "records_per_request": 1,
        "batching": batching,
        "sweep_64": {
            "records_per_request": sweep_records,
            "rps": round(bulk_rps, 1),
            "rows_per_s": round(bulk_rows_per_s, 1),
            "p99_ms": round(bulk_p99_ms, 3),
            "requests": len(bulk_latencies),
            "batching": bulk_batching,
        },
        "python": platform.python_version(),
    }
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")

    lines = [
        "serve throughput (closed loop, 1 record/request)",
        f"  sustained    {rps:8.0f} req/s   "
        f"({len(latencies)} requests over {wall_s:.2f}s, "
        f"{connections} connections)",
        f"  latency      p50 {p50_ms:6.2f} ms   p99 {p99_ms:6.2f} ms",
        f"  batching     batch<={config.max_batch}, one loop turn: "
        + _batching_line(batching),
        f"  bulk (64/req) {bulk_rps:7.0f} req/s = {bulk_rows_per_s:,.0f} "
        f"rows/s   p99 {bulk_p99_ms:6.2f} ms   (informational)",
        "  bulk batching " + _batching_line(bulk_batching),
        f"  floor        {rps_min:.0f} req/s, p99<={p99_max_ms:.0f}ms "
        "(1 record/request)",
    ]
    if baseline is not None:
        lines.append(
            f"  baseline     {baseline['rps']:8.0f} req/s   "
            f"(delta {rps / baseline['rps'] - 1.0:+.1%}, informational)"
        )
    report("serve_throughput", "\n".join(lines))

    assert rps >= rps_min, (
        f"served {rps:.0f} req/s, below the {rps_min:.0f} req/s floor"
    )
    assert p99_ms <= p99_max_ms, (
        f"p99 at {p99_ms:.1f} ms exceeds the {p99_max_ms:.0f} ms budget"
    )
