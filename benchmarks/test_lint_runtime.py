"""Lint runtime benchmark with a committed baseline.

Times the one path lint has — a cold, sequential pass that parses each
file once — over the real ``src/repro`` tree, best of 3.

Results land twice: ``benchmarks/reports/lint_runtime.txt`` for humans
and ``BENCH_lint.json`` at the repo root for machines.  Two runs must
agree finding-for-finding (lint output is a pure function of the tree)
and the tree must lint clean against ``lint-baseline.json``.
"""

import json
import platform
import time
from pathlib import Path

from repro.analysis import lint_paths

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BENCH_JSON = ROOT / "BENCH_lint.json"


def _run():
    start = time.perf_counter()
    result = lint_paths(
        [SRC], root=ROOT, baseline_path=ROOT / "lint-baseline.json"
    )
    return result, time.perf_counter() - start


def test_lint_runtime(report):
    baseline = (
        json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else None
    )

    runs = [_run() for _ in range(3)]
    first, cold_s = runs[0][0], min(elapsed for _, elapsed in runs)

    expected = [f.to_dict() for f in first.findings]
    assert [f.to_dict() for f in runs[1][0].findings] == expected
    assert first.ok, first.summary()

    result = {
        "schema": 2,
        "files": first.files_checked,
        "cold_s": round(cold_s, 4),
        "python": platform.python_version(),
    }
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")

    lines = [
        "lint runtime (src/repro)",
        f"  cold            {cold_s * 1e3:8.1f} ms   "
        f"({first.files_checked} files, best of 3)",
    ]
    if baseline is not None and baseline.get("schema") == 2:
        lines.append(
            f"  baseline        {baseline['cold_s'] * 1e3:8.1f} ms   "
            f"({baseline['files']} files)"
        )
    report("lint_runtime", "\n".join(lines))
