"""Shared pieces of the layered benchmark: layer clock, statistics, provenance.

Everything here runs in the harness process and times the program from
outside: a :class:`LayerClock` span wraps one call into a public entry
point of one layer, so no file under ``src/`` carries benchmark code.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the engine/worker overrides the benchmark must never run under: it
#: measures the production default path of every layer
ENGINE_OVERRIDES = (
    "REPRO_WORKERS",
    "REPRO_SESSIONS_PER_PROC",
    "REPRO_SIMNET_SCHEDULER",
    "REPRO_SIMNET_RNG",
    "REPRO_ML_PREDICT",
)


def scrub_env(env: Dict[str, str]) -> List[str]:
    """Remove every ``REPRO_*`` variable from ``env``; return the names removed.

    The five engine/worker overrides above are the ones that change which
    code path runs; the rest (crash hooks, scale knobs) are removed too so
    nothing outside the command line shapes a run.
    """
    removed = sorted(name for name in env if name.startswith("REPRO_"))
    for name in removed:
        del env[name]
    return removed


def child_env() -> Dict[str, str]:
    """Environment for a subprocess: scrubbed, with the source tree importable."""
    env = dict(os.environ)
    scrub_env(env)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3


class Run:
    """What one run measured, checked and saw, accumulated as it goes."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.phases: Dict[str, Dict[str, object]] = {}
        self.tables: List[str] = []
        self.details: Dict[str, object] = {}

    def phase(self, name: str, attempted: int, failed: int,
              problems: Sequence[str], **extra: object) -> None:
        """Count one phase's operations and keep its problems and figures."""
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        self.phases[name] = {"attempted": attempted,
                             "succeeded": attempted - failed,
                             "failed": failed, **extra}

    def fail(self, problem: str, operations: int = 1) -> None:
        """A check outside any phase failed."""
        self.problems.append(problem)
        self.failed += operations


# ------------------------------------------------------------ layer clock


class LayerClock:
    """Per-layer busy time, self time and call counts, timed from outside.

    ``with clock.span("core"):`` wraps one call into a layer.  Spans nest:
    a layer's *busy* time is the sum of its spans' durations, its *self*
    time is busy time minus the part covered by child spans.  Durations
    of individual spans are kept per layer only when ``keep`` names it
    (the testbed's per-record times feed latency and per-fault metrics).
    """

    def __init__(self, keep: Sequence[str] = ()) -> None:
        self.busy: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.kept: Dict[str, List[float]] = {name: [] for name in keep}
        self._stack: List[List[float]] = []  # [child time] per open span

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            self.busy[layer] = self.busy.get(layer, 0.0) + dur
            self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - frame[0]
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if layer in self.kept:
                self.kept[layer].append(dur)

    def table(self, wall_s: float) -> List[Dict[str, object]]:
        """One row per layer: busy, self, share of ``wall_s``, calls."""
        return [
            {
                "layer": layer,
                "busy_s": self.busy[layer],
                "self_s": self.self_s[layer],
                "share": self.self_s[layer] / wall_s if wall_s > 0 else 0.0,
                "calls": self.calls[layer],
            }
            for layer in self.busy
        ]


def coverage(rows: Sequence[Dict[str, object]]) -> float:
    """Share of the wall the layers' self times account for."""
    return sum(float(row["share"]) for row in rows)  # type: ignore[arg-type]


def render_table(title: str, wall_s: float, rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        f"{title}  (wall {wall_s:.3f} s, layers cover {coverage(rows):.1%})",
        f"  {'layer':<28}{'busy_s':>10}{'self_s':>10}{'share':>8}{'calls':>8}",
    ]
    for row in rows:
        lines.append(
            f"  {row['layer']:<28}{row['busy_s']:>10.3f}{row['self_s']:>10.3f}"
            f"{row['share']:>8.1%}{row['calls']:>8}"
        )
    return "\n".join(lines)


# ------------------------------------------------------------- statistics


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def peak_rss_mb_self() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------- provenance


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), sorted.

    Identifies the measured code even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(
    workload: str, seed: int, seconds: int, trace: bool,
    params: Dict[str, object], scrubbed: Sequence[str],
) -> Dict[str, object]:
    import numpy

    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "env_scrubbed": list(scrubbed),
        "env_overrides_checked": list(ENGINE_OVERRIDES),
        "unix_time": time.time(),
    }


def append_history(path: Path, entry: Dict[str, object]) -> None:
    """Append one run as one JSON line; never rewrites earlier lines."""
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
