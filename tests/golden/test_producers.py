"""Golden records of the other record producers, pinned across commits.

``test_table2_cells`` pins the controlled testbed; this module pins the
three producers it does not reach: the induced-fault real-world
campaign, the wild campaign (WiFi and cellular sessions, the latter
without a router VP) and the cellular-testbed campaign.  Each is run
small and its spool must equal the committed one byte for byte; a
mismatch names the producer, the record and the first differing field.

There is no switch to accept new output.  A change that moves a record
byte must regenerate the ``.jsonl`` file by hand (``record_to_json`` of
every record of :func:`produce`, one per line), update its SHA-256 in
``PRODUCERS``, bump ``CACHE_VERSION`` and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.common import CACHE_VERSION
from repro.pipeline.records import record_to_json
from repro.testbed.cellular import run_cellular_campaign
from repro.testbed.realworld import RealWorldConfig, WildConfig, iter_realworld, iter_wild
from tests.golden import first_difference

#: producer -> SHA-256 of ``<producer>.jsonl`` (every line followed by ``\n``)
PRODUCERS = {
    "realworld": "bc128351c6c28ee49b9715569eeeec11725b5216e93fd55606fc4fe6655e2249",
    "wild": "4044d5431ec854ae1ffabb8ff9bd0953df51b3eb3d33f0f23a43fa53e10337a1",
    "cellular": "3a050fcc6cbf50ce3a471d5fe8693a38be32d6d16615b1cce1d1f0f65633a6f7",
}


def produce(name: str) -> list:
    """The records of the small campaign pinned for producer ``name``."""
    short = (6.0, 6.0)
    if name == "realworld":
        config = RealWorldConfig(n_instances=3, seed=16, video_duration_range=short)
        return list(iter_realworld(config, workers=1))
    if name == "wild":
        # Seed 2: a faulty cellular, a faulty WiFi and a healthy cellular session.
        config = WildConfig(n_instances=3, seed=2, video_duration_range=short)
        return list(iter_wild(config, workers=1))
    if name == "cellular":
        return run_cellular_campaign(n_instances=3, seed=31337)
    raise KeyError(name)


def golden_path(name: str) -> Path:
    return Path(__file__).with_name(f"{name}.jsonl")


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_golden_file_is_pinned(name):
    digest = hashlib.sha256(golden_path(name).read_bytes()).hexdigest()
    assert digest == PRODUCERS[name]
    assert CACHE_VERSION == 5


def test_wild_golden_covers_cellular_and_faults():
    records = [json.loads(line) for line in golden_path("wild").read_text().splitlines()]
    assert any(r["meta"]["router_vp_available"] is False for r in records)
    assert any(r["meta"]["router_vp_available"] is True for r in records)
    assert any(r["fault_name"] != "none" for r in records)


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_records_equal_golden(name):
    golden = golden_path(name).read_text().splitlines()
    records = produce(name)
    assert len(records) == len(golden), f"{name}: record count"
    for index, (record, line) in enumerate(zip(records, golden)):
        got = record_to_json(record)
        if got != line:
            pytest.fail(f"{name} record {index}: "
                        + first_difference(json.loads(line), json.loads(got)))
