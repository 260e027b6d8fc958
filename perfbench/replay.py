"""In-process replay of request bodies through the server's public stages.

The traced runs use it to split one served request into its layers:
``json.loads`` (api), ``DiagnoseRequest.from_dict`` (api coerce),
``diagnose_batch`` (core) and ``DiagnoseResponse.from_reports().to_dict()``
+ ``canonical_json`` (api encode) -- the calls ``DiagnosisServer`` makes,
without the HTTP transport and the batcher around them.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from typing import ContextManager, Dict, Optional, Sequence, Tuple

from perfbench.common import LayerClock
from repro.api import DiagnoseRequest, DiagnoseResponse, ModelInfo, canonical_json
from repro.core.diagnosis import RootCauseAnalyzer

#: records pushed through one replay
REPLAY_RECORDS = 4096


def replay(
    analyzer: RootCauseAnalyzer,
    version: str,
    bodies: Sequence[bytes],
    requests_per_batch: int,
    clock: Optional[LayerClock],
    records: int = REPLAY_RECORDS,
) -> Tuple[int, float]:
    """Replay ``bodies`` until ``records`` records are done.

    ``requests_per_batch`` requests share one ``diagnose_batch`` call, the
    batch size the live server ran at.  With a ``clock`` each stage call
    is one span.  Returns (records replayed, wall seconds).
    """
    info = ModelInfo.from_analyzer(analyzer, version=version)

    def span(layer: str) -> ContextManager[None]:
        return clock.span(layer) if clock is not None else nullcontext()

    done = 0
    i = 0
    t0 = time.perf_counter()
    while done < records:
        requests = []
        for _ in range(requests_per_batch):
            body = bodies[i % len(bodies)]
            i += 1
            with span("api.json"):
                payload = json.loads(body.decode("utf-8"))
            with span("api.coerce"):
                requests.append(DiagnoseRequest.from_dict(payload))
        sessions = [record for request in requests for record in request.records]
        with span("core.diagnose"):
            reports = analyzer.diagnose_batch(sessions)
        offset = 0
        for request in requests:
            chunk = reports[offset:offset + len(request.records)]
            offset += len(request.records)
            with span("api.encode"):
                canonical_json(DiagnoseResponse.from_reports(chunk, info).to_dict())
        done += len(sessions)
    return done, time.perf_counter() - t0


def traced_replay(
    analyzer: RootCauseAnalyzer,
    version: str,
    bodies: Sequence[bytes],
    requests_per_batch: int,
    clock: LayerClock,
) -> Tuple[int, float, float]:
    """Replay with spans and without, alternated in thirds.

    Alternating keeps a change of the shared box's speed out of the
    comparison.  Returns (traced records, traced wall, tracing overhead as
    traced over untraced seconds per record, minus one).
    """
    done = {False: 0, True: 0}
    walls = {False: 0.0, True: 0.0}
    for _ in range(3):
        for traced in (False, True):
            n, wall = replay(analyzer, version, bodies, requests_per_batch,
                             clock if traced else None, REPLAY_RECORDS // 3)
            done[traced] += n
            walls[traced] += wall
    overhead = (walls[True] / done[True]) / (walls[False] / done[False]) - 1.0
    return done[True], walls[True], overhead


def replay_metrics(
    clock: LayerClock, records: int, bodies: Sequence[bytes], per_request: int
) -> Dict[str, float]:
    """``api.*`` and ``core.diagnose_us_per_record`` from a traced replay."""
    per_record = 1e6 / records
    return {
        "api.request_bytes_per_record": (
            sum(map(len, bodies)) / (len(bodies) * per_request)
        ),
        "api.json_us_per_record": clock.busy["api.json"] * per_record,
        "api.coerce_us_per_record": clock.busy["api.coerce"] * per_record,
        "core.diagnose_us_per_record": clock.busy["core.diagnose"] * per_record,
        "api.encode_us_per_record": clock.busy["api.encode"] * per_record,
    }
