"""Integration tests: the assembled testbed and single-session runs."""

import random

import pytest

from repro.faults import make_fault
from repro.obs.telemetry import tracing
from repro.testbed.testbed import SessionRecord, Testbed, TestbedConfig
from repro.video.catalog import VideoCatalog

CATALOG = VideoCatalog(size=10, duration_range=(10.0, 16.0), seed=5)
SD = next(v for v in CATALOG if v.definition == "SD")
HD = next(v for v in CATALOG if v.definition == "HD")


def run_one(seed=31, fault=None, profile=SD, **overrides):
    bed = Testbed(TestbedConfig(seed=seed, **overrides))
    record = bed.run_video_session(profile, fault=fault)
    bed.shutdown()
    return record


def test_invalid_wan_profile_rejected():
    with pytest.raises(ValueError):
        Testbed(TestbedConfig(wan_profile="satellite"))


def test_healthy_session_record():
    record = run_one()
    assert record.fault_name == "none"
    assert record.severity == "good"
    assert record.exact_label == "good"
    assert record.mos > 3.0
    assert record.app_metrics["completed"] == 1.0


def test_feature_namespace_complete():
    record = run_one()
    prefixes = {name.split("_", 1)[0] for name in record.features}
    assert prefixes == {"mobile", "router", "server"}
    # every probe layer contributed
    assert any("_tcp_" in n for n in record.features)
    assert any("_hw_" in n for n in record.features)
    assert any("_radio_" in n for n in record.features)
    assert any("_link" in n for n in record.features)
    assert len(record.features) >= 280


def test_video_flow_observed_at_all_vps():
    record = run_one()
    for vp in ("mobile", "router", "server"):
        assert record.features[f"{vp}_tcp_s2c_data_bytes"] > 0, vp


def test_severe_wan_shaping_degrades_qoe():
    fault = make_fault("wan_shaping", "severe", random.Random(1))
    record = run_one(fault=fault, profile=HD)
    assert record.severity in ("mild", "severe")
    assert record.exact_label.startswith("wan_shaping")
    assert record.location_label.startswith("wan")


def test_severe_mobile_load_detected_in_cpu_feature():
    fault = make_fault("mobile_load", "severe", random.Random(2))
    record = run_one(fault=fault, profile=HD)
    assert record.features["mobile_hw_cpu_avg"] > 0.75
    healthy = run_one(profile=HD)
    assert record.features["mobile_hw_cpu_avg"] > healthy.features["mobile_hw_cpu_avg"]


def test_low_rssi_visible_in_radio_feature():
    fault = make_fault("low_rssi", "severe", random.Random(3))
    record = run_one(fault=fault)
    assert record.features["mobile_radio_rssi_avg"] < -85.0


def test_interference_raises_retries_not_rssi():
    fault = make_fault("wifi_interference", "severe", random.Random(4))
    record = run_one(fault=fault)
    healthy = run_one()
    assert record.features["mobile_radio_rssi_avg"] > -70.0
    assert (
        record.features["mobile_radio_retry_rate"]
        > healthy.features["mobile_radio_retry_rate"]
    )


def test_fault_cleared_after_session():
    bed = Testbed(TestbedConfig(seed=33))
    fault = make_fault("wan_shaping", "severe", random.Random(5))
    baseline_rate = bed.wan_down.rate_bps
    bed.run_video_session(SD, fault=fault)
    assert bed.wan_down.rate_bps == baseline_rate
    assert not fault.active
    bed.shutdown()


def test_sequential_sessions_on_one_testbed():
    bed = Testbed(TestbedConfig(seed=34))
    first = bed.run_video_session(SD)
    second = bed.run_video_session(SD)
    bed.shutdown()
    assert first.severity == "good"
    assert second.severity == "good"
    # the second session observed its own flow, not the first one's
    assert second.features["mobile_tcp_s2c_data_bytes"] == pytest.approx(
        SD.size_bytes, rel=0.05
    )


def test_reproducible_with_same_seed():
    a = run_one(seed=35)
    b = run_one(seed=35)
    assert a.features == b.features
    assert a.mos == b.mos


def test_different_seeds_differ():
    a = run_one(seed=36)
    b = run_one(seed=37)
    assert a.features != b.features


def test_meta_carries_ground_truth():
    record = run_one()
    for key in ("video_id", "bitrate_bps", "wan_profile", "true_cpu", "true_rssi"):
        assert key in record.meta


def test_record_labels_consistent():
    record = run_one()
    assert record.severity_label == record.severity
    if record.severity == "good":
        assert record.exact_label == "good"
        assert record.location_label == "good"


@pytest.mark.parametrize("fault_name", [None, "wan_shaping"])
def test_phase_spans_account_for_every_event(fault_name):
    """warm-up + settle + session + read-out spans split the whole run."""
    bed = Testbed(TestbedConfig(seed=35))
    fault = (make_fault(fault_name, "severe", random.Random(5))
             if fault_name else None)
    events_before = bed.sim.events_processed
    with tracing() as tel:
        bed.run_video_session(SD, fault=fault)
        spans = {s.name: s for s in tel.spans if s.name.startswith("testbed.")}
        tel.reset()
    bed.shutdown()
    phases = ["testbed.warmup", "testbed.session", "testbed.readout"]
    if fault is not None:
        phases.insert(1, "testbed.settle")
    assert sorted(spans) == sorted(phases)
    assert all(spans[p].attrs["fault"] == (fault_name or "none")
               for p in phases)
    assert all(spans[p].attrs["events"] > 0 for p in phases[:-1])
    assert (sum(spans[p].attrs["events"] for p in phases)
            == bed.sim.events_processed - events_before)
