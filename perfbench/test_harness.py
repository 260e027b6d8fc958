"""Self-test of the benchmark harness.

Run from the repository root::

    python -m pytest perfbench -q

It runs the real command at its smallest size (``--seconds 1``: one
Table-2 sweep), checks that every metric ``BENCHMARK.json`` names is
printed with its unit, and checks that the correctness checks reject a
corrupted served response and a corrupted spool line.  About two
minutes on a 2-core box, most of it simulating the sweeps.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.campaign import check_spool  # noqa: E402
from perfbench.run import HISTORY, UNITS  # noqa: E402
from perfbench.serve import Phase, Sent, check_phase  # noqa: E402
from repro.api import canonical_json  # noqa: E402
from repro.pipeline import JsonlSink, JsonlSource  # noqa: E402
from repro.testbed.testbed import SessionRecord  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", ["campaign", "serve_single"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    before = HISTORY.read_text().count("\n") if HISTORY.exists() else 0
    out = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 20
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], float), metric["name"]
        assert f"  {metric['name']} = " in out.stdout
    assert HISTORY.read_text().count("\n") == before + 1


def test_units_cover_benchmark_json() -> None:
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNITS[metric["name"]] == metric["unit"], metric["name"]


def test_without_program_source_exits_nonzero(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("work", "history.jsonl"))
    out = _run(tmp_path, "--workload", "campaign", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_corrupted_served_response_fails_the_check() -> None:
    expected = [canonical_json([{"exact": "good", "severity": "good"}])]
    good = json.dumps({"diagnoses": [{"severity": "good", "exact": "good"}]})
    corrupted = good.replace('"exact": "good"', '"exact": "lan_shaping_mild"')
    phase = Phase(name="open_loop", wall_s=1.0, cpu_s=0.0, batcher={}, sent=[
        Sent(body=0, due=0.0, status=200, data=good.encode()),
        Sent(body=0, due=0.0, status=200, data=corrupted.encode()),
        Sent(body=0, due=0.0, status=500, data=b"{}"),
    ])
    check_phase(phase, expected)
    assert phase.failed == 2
    assert [s.status for s in phase.sent] == [200, -1, 500]
    assert any("differ from the offline diagnosis" in p for p in phase.problems)


def _record(i: int) -> SessionRecord:
    return SessionRecord(
        features={"tcp_rtt_avg": 10.0 + i, "mobile_hw_cpu_avg": 0.25 * i},
        app_metrics={"stalls": float(i)}, mos=4.0, severity="good",
        fault_name="none", fault_severity="", fault_location="",
        meta={"session_s": 6.0, "instance_index": i},
    )


def test_corrupted_spool_line_fails_the_check(tmp_path: Path) -> None:
    spool = tmp_path / "spool.jsonl"
    written = [_record(i) for i in range(3)]
    sink = JsonlSink(spool)
    for record in written:
        sink.consume(record)
    sink.on_complete()
    sink.close()
    assert check_spool(written, list(JsonlSource(spool).items())) == ([], 0)

    lines = spool.read_text().splitlines()
    lines[1] = lines[1].replace('"tcp_rtt_avg":11.0', '"tcp_rtt_avg":11.5')
    spool.write_text("\n".join(lines) + "\n")
    problems, failed = check_spool(written, list(JsonlSource(spool).items()))
    assert failed == 1 and problems
