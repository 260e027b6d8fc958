"""Unit tests for feature selection wrapper and label helpers."""

import numpy as np
import pytest

from repro.core.dataset import Dataset, Instance
from repro.core.labeling import (
    LABEL_KINDS,
    collapse_to_existence,
    exact_label_vocabulary,
    label_array,
    location_label_vocabulary,
)
from repro.core.selection import FeatureSelector


def synthetic_dataset(n=240, seed=0):
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(n):
        label = rng.choice(["good", "mild", "severe"])
        strength = {"good": 0.0, "mild": 1.0, "severe": 2.0}[label]
        instances.append(
            Instance(
                features={
                    "mobile_tcp_s2c_rtt_avg": 0.05 + 0.1 * strength + rng.normal(0, 0.01),
                    "mobile_tcp_noise_a": rng.normal(0, 1),
                    "mobile_tcp_noise_b": rng.normal(0, 1),
                    "router_tcp_s2c_rtt_avg": 0.05 + 0.1 * strength + rng.normal(0, 0.01),
                },
                labels={"severity": label, "location": label, "exact": label,
                        "existence": "good" if label == "good" else "problematic"},
            )
        )
    return Dataset(instances)


def test_selector_keeps_informative_drops_noise():
    ds = synthetic_dataset()
    selector = FeatureSelector().fit(ds, "severity")
    assert any("rtt" in n for n in selector.selected)
    assert not any("noise" in n for n in selector.selected)


def test_selector_redundancy_pruning():
    ds = synthetic_dataset()
    selector = FeatureSelector().fit(ds, "severity")
    # mobile and router RTT are near-copies: one should be removed.
    assert len([n for n in selector.selected if "rtt" in n]) == 1


def test_selector_max_features_cap():
    ds = synthetic_dataset()
    selector = FeatureSelector(max_features=1).fit(ds, "severity")
    assert len(selector.selected) == 1


def test_selector_feature_scope_respected():
    ds = synthetic_dataset()
    selector = FeatureSelector().fit(
        ds, "severity", feature_names=["router_tcp_s2c_rtt_avg"]
    )
    assert selector.selected == ["router_tcp_s2c_rtt_avg"]


def test_selector_unfit_access_rejected():
    with pytest.raises(RuntimeError):
        FeatureSelector().selected


def uninformative_dataset(n=40, seed=0):
    """Severity follows the RTT; location labels are coin flips."""
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(n):
        features = {name: float(rng.uniform(1, 100)) for name in (
            "mobile_tcp_rtt_avg", "mobile_hw_cpu_avg", "mobile_tcp_c2s_pkts")}
        severity = "good" if features["mobile_tcp_rtt_avg"] < 50 else "severe"
        instances.append(Instance(
            features=features,
            labels={"severity": severity,
                    "location": str(rng.choice(["lan_mild", "wan_mild"])),
                    "exact": severity, "existence": "good"},
            meta={"session_s": 30.0},
        ))
    return Dataset(instances)


def test_selector_empty_selection_is_still_fitted():
    selector = FeatureSelector().fit(uninformative_dataset(), "location")
    assert selector.selected == []


def test_analyzer_falls_back_to_all_features_when_fcbf_keeps_none():
    """FCBF keeping nothing for one task must not crash ``fit``."""
    from repro.core.diagnosis import RootCauseAnalyzer

    ds = uninformative_dataset()
    analyzer = RootCauseAnalyzer(vps=("mobile",)).fit(ds)
    assert analyzer.features["severity"] == ["mobile_tcp_rtt_avg"]
    assert set(analyzer.features["location"]) >= set(ds.feature_names)
    assert analyzer.diagnose(ds[0]).location in ("lan_mild", "wan_mild")


def test_analyzer_fits_single_class_task():
    """A one-class task: every SU is 1 by definition, FCBF keeps one."""
    from repro.core.diagnosis import RootCauseAnalyzer

    ds = uninformative_dataset()
    for inst in ds.instances:
        inst.labels["location"] = "good"
    analyzer = RootCauseAnalyzer(vps=("mobile",)).fit(ds)
    assert len(analyzer.features["location"]) == 1
    assert analyzer.diagnose(ds[0]).location == "good"


def test_ranked_su_descending():
    ds = synthetic_dataset()
    selector = FeatureSelector().fit(ds, "severity")
    values = [v for _, v in selector.ranked_su()]
    assert values == sorted(values, reverse=True)


class TestLabeling:
    def test_vocabularies(self):
        exact = exact_label_vocabulary()
        assert "good" in exact
        assert "wan_congestion_mild" in exact
        assert len(exact) == 1 + 7 * 2
        location = location_label_vocabulary()
        assert "lan_severe" in location
        assert len(location) == 1 + 3 * 2

    def test_label_array_kinds(self):
        ds = synthetic_dataset(n=10)
        for kind in LABEL_KINDS:
            assert len(label_array(ds, kind)) == 10
        with pytest.raises(ValueError):
            label_array(ds, "sentiment")

    def test_collapse_to_existence(self):
        labels = np.array(["good", "wan_congestion_mild", "good", "low_rssi_severe"])
        collapsed = collapse_to_existence(labels)
        assert list(collapsed) == ["good", "problematic", "good", "problematic"]
