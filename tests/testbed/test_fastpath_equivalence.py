"""Fast-path equivalence: the simnet fast paths must be invisible in the data.

The Event free list, the channel short-cuts and the incremental probes
are throughput work only -- campaign records must stay *byte-identical*
across worker counts, and the dataset cache key must not move
(CACHE_VERSION stays 5: cached datasets from before the rework remain
valid).  ``tests/golden`` pins the records themselves across commits.
"""

import pickle

from repro.experiments.common import CACHE_VERSION, _config_key
from repro.testbed.campaign import CampaignConfig, run_campaign


def _tiny_config():
    return CampaignConfig(n_instances=3, seed=77,
                          video_duration_range=(10.0, 14.0))


def _payload(records):
    # Pickle per record, not the whole list: pickling a list memoizes
    # objects shared *across* records (string interning differs between
    # the serial path and worker subprocesses) without changing any value.
    return [
        pickle.dumps(
            (r.features, r.app_metrics, r.mos, r.severity, r.fault_name,
             r.fault_severity, r.fault_location, r.fault_intensity, r.meta)
        )
        for r in records
    ]


def test_records_identical_serial_vs_parallel():
    serial = _payload(run_campaign(_tiny_config(), workers=1))
    parallel = _payload(run_campaign(_tiny_config(), workers=4))
    assert serial == parallel


def test_cache_version_not_bumped():
    """The rework changes no record bytes, so caches stay valid."""
    assert CACHE_VERSION == 5


def test_cache_key_stable():
    """The campaign config hash (the .repro_cache file name) is pinned."""
    assert _config_key(_tiny_config()) == _config_key(_tiny_config())
    # Pinned against the pre-rework value: a moved key would silently
    # orphan every cached dataset.
    assert _config_key(CampaignConfig()) == "f3cb80daeabac0b5"
