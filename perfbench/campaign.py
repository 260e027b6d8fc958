"""The offline researcher loop: Table-2 sweep -> spool -> read back -> fit -> diagnose.

One *sweep* simulates one session for each cell of the paper's Table 2
fault x severity matrix (7 x 2) plus :data:`HEALTHY` healthy sessions,
each through ``iter_campaign(..., workers=1)`` with a one-instance
:class:`CampaignConfig` pinned to that cell, so the class mix is the same
for every seed.  Every record is spooled with ``JsonlSink``, the spool is
read back with ``JsonlSource``, an analyzer is fit on the read-back
records and ``diagnose_batch`` runs over all of them.

Run as a module (``python -m perfbench.campaign first <seed>``) it
simulates only the first instance of the seed's sweep and prints one
line: the child process that times ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench.common import (
    ROOT,
    SETUP_REPEATS,
    LayerClock,
    Run,
    child_env,
    median,
    peak_rss_mb_self,
    render_table,
)
from perfbench.replay import replay, replay_metrics
from repro.api import DiagnoseRequest
from repro.core.dataset import Dataset
from repro.core.diagnosis import RootCauseAnalyzer
from repro.faults.base import FAULT_NAMES
from repro.obs import tracing
from repro.pipeline import JsonlSink, JsonlSource
from repro.pipeline.records import record_to_json
from repro.testbed.campaign import CampaignConfig, iter_campaign
from repro.testbed.testbed import SessionRecord

#: every session streams a 6 s video: short enough for a sweep to take
#: ~17 s on a 2-core box, long enough that severe cells degrade MOS.  With
#: 3-4 s videos some seeds' sweeps come out nearly all "good", and
#: ``RootCauseAnalyzer.fit`` then raises when FCBF selects no feature.
VIDEO_DURATION_S = (6.0, 6.0)
HEALTHY = 6
#: (fault, severity) per record of one sweep; healthy cells first, so the
#: first simulated instance (what ``setup_s`` waits for) is a cheap one
CELLS: Tuple[Tuple[str, str], ...] = tuple(
    [("none", "")] * HEALTHY
    + [(fault, severity) for fault in FAULT_NAMES for severity in ("mild", "severe")]
)
#: wall seconds one sweep is sized at; ``--seconds`` buys whole sweeps
NOMINAL_SWEEP_S = 10.0

#: testbed span layer names (``ms_per_record`` and per-fault metrics)
TESTBED = "testbed"
SPOOL_WRITE = "pipeline.spool_write"
SPOOL_READ = "pipeline.spool_read"
FIT = "core.fit"
DIAGNOSE = "core.diagnose"


def sweeps_for(seconds: float) -> int:
    """Whole sweeps that fill ``seconds`` at the nominal sweep time (>= 1)."""
    return max(1, round(seconds / NOMINAL_SWEEP_S))


def cell_config(fault: str, severity: str, instance_seed: int) -> CampaignConfig:
    """A one-instance campaign that always draws the given Table-2 cell."""
    if fault == "none":
        return CampaignConfig(
            n_instances=1, seed=instance_seed, healthy_fraction=1.0,
            video_duration_range=VIDEO_DURATION_S,
        )
    return CampaignConfig(
        n_instances=1, seed=instance_seed, faults=(fault,),
        healthy_fraction=0.0, mild_fraction=1.0 if severity == "mild" else 0.0,
        video_duration_range=VIDEO_DURATION_S,
    )


def sweep_configs(seed: int, sweeps: int) -> List[CampaignConfig]:
    """The seed's campaign: ``sweeps`` passes over :data:`CELLS`."""
    rng = random.Random(seed)
    return [
        cell_config(fault, severity, rng.randrange(2**31))
        for _ in range(sweeps)
        for fault, severity in CELLS
    ]


@dataclass
class Spooled:
    """A sweep simulated, spooled and read back, with its checks."""

    records: List[SessionRecord]  # as read back from the spool
    latencies_s: List[float]  # per record: simulate + spool write
    spool_sha256: str
    spool_bytes: int
    failed: int  # records failing a correctness check
    problems: List[str]


@dataclass
class LoopResult:
    """One pass of the whole loop."""

    spooled: Spooled
    analyzer: RootCauseAnalyzer
    wall_s: float
    failed: int
    problems: List[str]


def spool_sweep(
    configs: Sequence[CampaignConfig], spool: Path, clock: LayerClock
) -> Spooled:
    """Simulate each config's instance, spool it, read the spool back."""
    written: List[SessionRecord] = []
    latencies: List[float] = []
    sink = JsonlSink(spool)
    try:
        for config in configs:
            t0 = time.perf_counter()
            with clock.span(TESTBED):
                record = next(iter_campaign(config, workers=1))
            with clock.span(SPOOL_WRITE):
                sink.consume(record)
            latencies.append(time.perf_counter() - t0)
            written.append(record)
        sink.on_complete()
    finally:
        sink.close()
    with clock.span(SPOOL_READ):
        records = list(JsonlSource(spool).items())
    raw = spool.read_bytes()
    problems, failed = check_spool(written, records)
    return Spooled(
        records=records, latencies_s=latencies,
        spool_sha256=hashlib.sha256(raw).hexdigest(), spool_bytes=len(raw),
        failed=failed, problems=problems,
    )


def run_loop(
    configs: Sequence[CampaignConfig], spool: Path, clock: LayerClock
) -> LoopResult:
    """The whole loop: spool the sweep(s), fit on the read-back, diagnose all."""
    t0 = time.perf_counter()
    spooled = spool_sweep(configs, spool, clock)
    with clock.span(FIT):
        analyzer = RootCauseAnalyzer().fit(Dataset.from_records(spooled.records))
    with clock.span(DIAGNOSE):
        reports = analyzer.diagnose_batch(spooled.records)
    wall = time.perf_counter() - t0
    problems = list(spooled.problems)
    unreported = abs(len(reports) - len(spooled.records))
    if unreported:
        problems.append(
            f"diagnose_batch returned {len(reports)} reports for "
            f"{len(spooled.records)} records"
        )
    return LoopResult(
        spooled=spooled, analyzer=analyzer, wall_s=wall,
        failed=max(spooled.failed, unreported), problems=problems,
    )


def check_spool(
    written: Sequence[SessionRecord], read_back: Sequence[SessionRecord]
) -> Tuple[List[str], int]:
    """Every spooled record reads back equal (``record_to_json``) to what was written.

    Returns the problems found and how many records they affect.
    """
    mismatched = abs(len(read_back) - len(written)) + sum(
        record_to_json(a) != record_to_json(b) for a, b in zip(written, read_back)
    )
    if not mismatched:
        return [], 0
    return [
        f"{mismatched} of {len(written)} spooled records do not read back as written"
    ], mismatched


def testbed_metrics(
    clock: LayerClock, records: Sequence[SessionRecord]
) -> Dict[str, float]:
    """``testbed.*`` per-layer metrics from the per-record testbed spans."""
    durations = clock.kept[TESTBED]
    metrics = {"testbed.ms_per_record": 1e3 * sum(durations) / len(durations)}
    by_fault: Dict[str, List[float]] = {}
    for record, dur in zip(records, durations):
        by_fault.setdefault(record.fault_name, []).append(dur)
    for fault in ("none",) + tuple(FAULT_NAMES):
        values = by_fault.get(fault, [])
        metrics[f"testbed.ms_per_record.{fault}"] = (
            1e3 * sum(values) / len(values) if values else 0.0
        )
    sim_s = sum(float(record.meta["session_s"]) for record in records)
    metrics["testbed.sim_s_per_host_s"] = sim_s / sum(durations)
    return metrics


def pipeline_metrics(clock: LayerClock, spooled: Spooled) -> Dict[str, float]:
    """``pipeline.*`` and ``core.fit_s`` (mean over fits) from the spans."""
    n = len(spooled.records)
    return {
        "pipeline.spool_write_ms_per_record": 1e3 * clock.busy[SPOOL_WRITE] / n,
        "pipeline.spool_read_ms_per_record": 1e3 * clock.busy[SPOOL_READ] / n,
        "pipeline.spool_bytes_per_record": spooled.spool_bytes / n,
        "core.fit_s": clock.busy[FIT] / clock.calls[FIT],
    }


def simnet_metrics(spans: Sequence[object]) -> Dict[str, float]:
    """Counts the program already emits: its ``testbed.session`` spans.

    Each span covers one session window (after warm-up and fault
    settling) and carries the number of simulator events dispatched in it.
    """
    sessions = [s for s in spans if getattr(s, "name", None) == "testbed.session"]
    events = sum(int(s.attrs["events"]) for s in sessions)  # type: ignore[attr-defined]
    dur = sum(float(s.dur_s) for s in sessions)  # type: ignore[attr-defined]
    return {
        "simnet.events_per_record": events / len(sessions),
        "simnet.ns_per_event": 1e9 * dur / events,
        "simnet.session_s": dur,
    }


def split_simnet(rows: List[Dict[str, object]], simnet_s: float,
                 wall_s: float) -> List[Dict[str, object]]:
    """Show the program's own session-window spans as the testbed's child row."""
    out = []
    for row in rows:
        if row["layer"] == TESTBED:
            self_s = float(row["self_s"]) - simnet_s  # type: ignore[arg-type]
            out.append(dict(row, self_s=self_s, share=self_s / wall_s))
            out.append({"layer": "  simnet (testbed.session)", "busy_s": simnet_s,
                        "self_s": simnet_s, "share": simnet_s / wall_s,
                        "calls": row["calls"]})
        else:
            out.append(row)
    return out


def time_first_instance(seed: int) -> float:
    """Wall from process start to the first simulated instance, in a child."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.campaign", "first", str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    if out.returncode != 0 or not out.stdout.startswith("first-instance"):
        raise RuntimeError(f"first-instance child failed: {out.stderr[-2000:]}")
    return wall


def run_workload(run: Run, seed: int, seconds: int, trace: bool, work: Path) -> None:
    """The ``campaign`` workload, untraced or traced."""
    configs = sweep_configs(seed, sweeps_for(seconds))
    run.details["params"] = {"records": len(configs), "cells": len(CELLS),
                             "video_duration_s": list(VIDEO_DURATION_S),
                             "workers": 1}
    if not trace:
        setups = [time_first_instance(seed) for _ in range(SETUP_REPEATS)]
        loop = run_loop(configs, work / "spool.jsonl", LayerClock(keep=[TESTBED]))
        run.metrics.update({
            "setup_s": median(setups),
            "records_per_s": len(loop.spooled.records) / loop.wall_s,
            # time to a diagnosed campaign: one sample per run
            "latency_p50_ms": 1e3 * loop.wall_s,
            "peak_rss_mb": peak_rss_mb_self(),
        })
        run.details["setup_runs_s"] = setups
        run.details["record_latency_ms"] = {
            "p50": 1e3 * median(loop.spooled.latencies_s),
            "max": 1e3 * max(loop.spooled.latencies_s),
        }
    else:
        untraced = run_loop(configs, work / "spool-untraced.jsonl",
                            LayerClock(keep=[TESTBED]))
        clock = LayerClock(keep=[TESTBED])
        with tracing() as tel:
            loop = run_loop(configs, work / "spool.jsonl", clock)
            spans = list(tel.spans)
        if loop.spooled.spool_sha256 != untraced.spooled.spool_sha256:
            run.fail("traced and untraced spools differ", len(configs))
        records = loop.spooled.records
        simnet = simnet_metrics(spans)
        body = json.dumps(DiagnoseRequest(records=list(records)).to_dict()).encode()
        rclock = LayerClock()
        replayed, _ = replay(loop.analyzer, "default", [body], 1, rclock)
        run.metrics.update({
            **testbed_metrics(clock, records),
            "simnet.events_per_record": simnet["simnet.events_per_record"],
            "simnet.ns_per_event": simnet["simnet.ns_per_event"],
            **pipeline_metrics(clock, loop.spooled),
            **replay_metrics(rclock, replayed, [body], len(records)),
            "core.diagnose_us_per_record": 1e6 * clock.busy[DIAGNOSE] / len(records),
            "obs.trace_overhead": loop.wall_s / untraced.wall_s - 1.0,
        })
        rows = split_simnet(clock.table(loop.wall_s), simnet["simnet.session_s"],
                            loop.wall_s)
        run.tables.append(render_table("campaign loop (traced)", loop.wall_s, rows))
        run.details["table"] = rows
        run.details["untraced_wall_s"] = untraced.wall_s
    run.phase("loop", len(configs), loop.failed, loop.problems,
              wall_s=loop.wall_s, spool_sha256=loop.spooled.spool_sha256)
    print(f"spool sha256 {loop.spooled.spool_sha256} "
          f"({len(loop.spooled.records)} records)")


def _first_instance(seed: int) -> int:
    """Simulate the first instance of ``seed``'s sweep (``setup_s`` child)."""
    record = next(iter_campaign(sweep_configs(seed, 1)[0], workers=1))
    print(f"first-instance {record.fault_name}", flush=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "first":
        sys.exit("usage: python -m perfbench.campaign first <seed>")
    sys.exit(_first_instance(int(sys.argv[2])))
