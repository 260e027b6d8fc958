"""Fault-lifecycle pass (F3xx): fixture fault classes."""

import textwrap

from repro.analysis.lifecycle import check_lifecycle

from .conftest import run_pass

GOOD = textwrap.dedent(
    """
    from repro.faults.base import Fault

    class GoodFault(Fault):
        name = "good_fault"
        VANTAGE_SCOPE = ("mobile", "router")

        def apply(self, testbed):
            self.active = True

        def clear(self, testbed):
            if not self.active:
                return
            self.active = False
    """
)


def check(source, path="faults/m.py"):
    return run_pass(check_lifecycle, path, source)


def rules_of(source):
    return [f.rule for f in check(textwrap.dedent(source), "faults/mod.py")]


class TestLifecyclePairing:
    def test_well_formed_fault_is_clean(self):
        assert check(GOOD, "faults/mod.py") == []

    def test_missing_clear_is_f301(self):
        source = """
        from repro.faults.base import Fault

        class Leaky(Fault):
            name = "leaky"
            VANTAGE_SCOPE = ("mobile",)

            def apply(self, testbed):
                self.active = True
        """
        assert "F301" in rules_of(source)

    def test_missing_apply_is_f301(self):
        source = """
        from repro.faults.base import Fault

        class Backwards(Fault):
            name = "backwards"
            VANTAGE_SCOPE = ("mobile",)

            def clear(self, testbed):
                if not self.active:
                    return
                self.active = False
        """
        assert "F301" in rules_of(source)

    def test_abstract_intermediate_exempt(self):
        source = """
        from repro.faults.base import Fault

        class Intermediate(Fault):
            def band_pair(self):
                return (self.MILD, self.SEVERE)
        """
        assert rules_of(source) == []

    def test_non_fault_class_ignored(self):
        source = """
        class Probe:
            name = "probe"

            def apply(self):
                pass
        """
        assert rules_of(source) == []


class TestActiveProtocol:
    def test_apply_without_active_flag_is_f302(self):
        source = GOOD.replace("self.active = True", "pass")
        assert "F302" in [f.rule for f in check(source)]

    def test_clear_without_reset_is_f302(self):
        source = GOOD.replace(
            "if not self.active:\n            return\n        self.active = False",
            "pass",
        )
        assert "F302" in [f.rule for f in check(source)]

    def test_clear_without_guard_is_f302(self):
        source = GOOD.replace(
            "if not self.active:\n            return\n        self.active = False",
            "self.active = False",
        )
        findings = check(source)
        assert [f.rule for f in findings] == ["F302"]
        assert "guard" in findings[0].message


class TestVantageScope:
    def test_missing_scope_is_f303(self):
        source = GOOD.replace('VANTAGE_SCOPE = ("mobile", "router")\n', "")
        assert "F303" in [f.rule for f in check(source)]

    def test_unknown_vantage_point_is_f303(self):
        source = GOOD.replace('("mobile", "router")', '("mobile", "satellite")')
        findings = check(source)
        assert [f.rule for f in findings] == ["F303"]
        assert "satellite" in findings[0].message

    def test_empty_scope_is_f303(self):
        source = GOOD.replace('("mobile", "router")', "()")
        assert "F303" in [f.rule for f in check(source)]


class TestRealFaults:
    def test_every_registered_fault_declares_scope(self):
        from repro.faults import base as fault_base
        from repro.faults.base import FAULT_NAMES, make_fault

        for name in FAULT_NAMES:
            fault = make_fault(name, "mild")
            assert fault.vantage_scope, name
            assert set(fault.vantage_scope) <= {"mobile", "router", "server"}

    def test_make_fault_default_rng_is_reproducible(self):
        from repro.faults.base import make_fault

        a = make_fault("wan_shaping", "mild")
        b = make_fault("wan_shaping", "mild")
        assert a.rng.random() == b.rng.random()

    def test_repo_faults_are_clean(self, repo_lint_result):
        f3xx = [
            f for f in repo_lint_result.findings if f.rule.startswith("F3")
        ]
        assert f3xx == [], [f.render() for f in f3xx]
