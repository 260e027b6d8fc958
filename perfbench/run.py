"""Layered end-to-end benchmark of the repro pipeline.

Runs one named workload at one seed through the public entry point of
every layer, times each layer from outside, checks the outputs, prints a
report, appends it to ``perfbench/history.jsonl`` and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics and tables.  The
program is run from ``src/`` of the checkout this file sits in; a run
without it exits 2.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("campaign", "serve_bulk", "serve_single")
HISTORY = HERE / "history.jsonl"
WORK = HERE / "work"

#: unit of every metric the benchmark can print
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "testbed.ms_per_record": "ms",
    **{f"testbed.ms_per_record.{fault}": "ms" for fault in (
        "none", "wan_congestion", "wan_shaping", "lan_congestion", "lan_shaping",
        "mobile_load", "low_rssi", "wifi_interference")},
    "testbed.sim_s_per_host_s": "s/s",
    "simnet.events_per_record": "count",
    "simnet.ns_per_event": "ns",
    "pipeline.spool_write_ms_per_record": "ms",
    "pipeline.spool_read_ms_per_record": "ms",
    "pipeline.spool_bytes_per_record": "bytes",
    "core.fit_s": "s",
    "core.diagnose_us_per_record": "us",
    "api.request_bytes_per_record": "bytes",
    "api.json_us_per_record": "us",
    "api.coerce_us_per_record": "us",
    "api.encode_us_per_record": "us",
    "serve.cpu_ms_per_request": "ms",
    "serve.busy_share": "ratio",
    "serve.records_per_batch": "records",
    "serve.timer_flush_share": "ratio",
    "loadgen.conn_wait_ms_p50": "ms",
    "loadgen.lag_ms_max": "ms",
    "obs.trace_overhead": "ratio",
}
END_TO_END = ("setup_s", "records_per_s", "latency_p50_ms", "peak_rss_mb")
#: printed and kept in the history, but not in the result line: p99 does
#: not repeat from run to run on a shared box (see README), and the campaign
#: has no server or load generator to measure
REPORT_ONLY = ("latency_p99_ms", "serve.cpu_ms_per_request", "serve.busy_share",
               "serve.records_per_batch", "serve.timer_flush_share",
               "loadgen.conn_wait_ms_p50", "loadgen.lag_ms_max")


# ------------------------------------------------------------- main


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    from perfbench.common import Run, append_history, provenance, scrub_env

    scrubbed = scrub_env(os.environ)  # before repro is imported
    sys.path.insert(0, str(SRC))
    from perfbench import campaign, serve

    trace = bool(args.trace)
    run = Run()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "campaign":
            campaign.run_workload(run, args.seed, args.seconds, trace, work)
        else:
            serve.run_workload(run, args.workload, args.seed, args.seconds, trace,
                               work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [n for n in UNITS if n not in REPORT_ONLY and (n in END_TO_END) != trace]
    correct = not run.problems and run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": run.metrics[n], "unit": UNITS[n]} for n in names},
    }
    for table in run.tables:
        print(table)
    for phase, counts in run.phases.items():
        print(f"phase {phase}: " + ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in counts.items()))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    for name in UNITS:
        if name in run.metrics:
            print(f"  {name} = {run.metrics[name]:.6g} {UNITS[name]}")
    append_history(HISTORY, {
        "provenance": provenance(args.workload, args.seed, args.seconds, trace,
                                 run.details.pop("params", {}), scrubbed),
        "result": result, "phases": run.phases, "problems": run.problems,
        "details": run.details,
    })
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
