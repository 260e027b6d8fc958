"""Golden records: one Table-2 cell each, pinned across commits.

Every other equivalence test compares two runs of the *current* code, so
a change that moves both sides alike (a probe edit, a reordered RNG draw,
a float-formatting change) would pass them.  This test regenerates eight
one-instance controlled campaigns -- healthy, then every fault of
``FAULT_NAMES`` at severe -- and requires each spool line to equal the
committed one byte for byte.

There is no switch to accept new output.  A change that moves a record
byte must regenerate ``table2_cells.jsonl`` by hand, update
``GOLDEN_SHA256``, bump ``CACHE_VERSION`` and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.common import CACHE_VERSION
from repro.faults.base import FAULT_NAMES
from repro.pipeline.records import record_to_json
from repro.testbed.campaign import CampaignConfig, iter_campaign
from tests.golden import first_difference

GOLDEN = Path(__file__).with_name("table2_cells.jsonl")
#: SHA-256 of GOLDEN (every line followed by ``\n``)
GOLDEN_SHA256 = "edf73b6d95a1f1fc4525f8171bf40da1bcd65328175760621b156d2e736761bc"


def table2_cells():
    """``(label, config)`` of the eight pinned one-instance campaigns."""
    common = dict(n_instances=1, seed=16, video_duration_range=(6.0, 6.0))
    yield "healthy", CampaignConfig(healthy_fraction=1.0, **common)
    for name in FAULT_NAMES:
        yield name, CampaignConfig(
            healthy_fraction=0.0, mild_fraction=0.0, faults=(name,), **common
        )


def test_golden_file_is_pinned():
    assert hashlib.sha256(GOLDEN.read_bytes()).hexdigest() == GOLDEN_SHA256
    assert CACHE_VERSION == 5


def test_records_equal_golden():
    golden = GOLDEN.read_text().splitlines()
    cells = list(table2_cells())
    assert len(golden) == len(cells)
    for (label, config), line in zip(cells, golden):
        (record,) = iter_campaign(config, workers=1)
        got = record_to_json(record)
        if got != line:
            pytest.fail(f"cell {label}: "
                        + first_difference(json.loads(line), json.loads(got)))
