"""End-to-end pin: served responses match the object prediction oracle.

The in-process server evaluates on whatever the analyzer's classes do
at request time, so patching in the object oracle
(``tests/oracles/tree.py``) switches a running server without a
restart.  The same request posted under ``compiled`` and ``object`` must
come back byte-identical as canonical JSON — the serving layer puts
nothing nondeterministic in the body (latency goes to telemetry only),
so any divergence is a real compiled/object mismatch.
"""

from __future__ import annotations

from repro.api import REQUEST_SCHEMA, canonical_json
from repro.pipeline.records import record_to_dict
from tests.oracles.tree import object_engine


def _post_under_mode(server, payload, mode):
    if mode == "object":
        with object_engine():
            return server.request("POST", "/v1/diagnose", payload)
    return server.request("POST", "/v1/diagnose", payload)


def test_served_bodies_byte_identical_across_predict_modes(
        server, mini_campaign_records):
    records = mini_campaign_records[:16]
    payload = {"schema": REQUEST_SCHEMA,
               "records": [record_to_dict(r) for r in records]}
    status_c, body_c = _post_under_mode(server, payload, "compiled")
    status_o, body_o = _post_under_mode(server, payload, "object")
    assert status_c == status_o == 200
    assert canonical_json(body_c) == canonical_json(body_o)
    assert canonical_json(body_c["diagnoses"]) == canonical_json(
        body_o["diagnoses"])


def test_mixed_record_shapes_identical_across_predict_modes(
        server, mini_campaign_records):
    # Bare feature dicts ride the same batch as wrapped records; the
    # compiled plan must agree with the object path on both shapes.
    record = mini_campaign_records[0]
    payload = {"schema": REQUEST_SCHEMA,
               "records": [dict(record.features),
                           {"features": dict(record.features),
                            "meta": {"session_s": 12.0}},
                           record_to_dict(mini_campaign_records[1])]}
    _, body_c = _post_under_mode(server, payload, "compiled")
    _, body_o = _post_under_mode(server, payload, "object")
    assert canonical_json(body_c) == canonical_json(body_o)
