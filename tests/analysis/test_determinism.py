"""Determinism pass (D1xx): fixture sources with known violations."""

import textwrap

from repro.analysis.determinism import check_determinism

from .conftest import run_pass


def rules_of(source):
    findings = run_pass(check_determinism, "simnet/mod.py", textwrap.dedent(source))
    return [f.rule for f in findings]


class TestStdlibRandom:
    def test_module_level_draw_flagged(self):
        assert rules_of(
            """
            import random
            JITTER = random.random()
            """
        ) == ["D101"]

    def test_aliased_import_flagged(self):
        assert rules_of(
            """
            import random as rnd
            x = rnd.uniform(0, 1)
            """
        ) == ["D101"]

    def test_from_import_flagged(self):
        assert rules_of(
            """
            from random import choice
            pick = choice([1, 2, 3])
            """
        ) == ["D101"]

    def test_unseeded_random_instance_flagged(self):
        assert rules_of(
            """
            import random
            rng = random.Random()
            """
        ) == ["D101"]

    def test_system_random_flagged(self):
        assert rules_of(
            """
            import random
            rng = random.SystemRandom()
            """
        ) == ["D101"]

    def test_seeded_instance_ok(self):
        assert rules_of(
            """
            import random
            rng = random.Random(42)
            rng2 = random.Random(f"{42}/label")
            value = rng.uniform(0, 1)
            """
        ) == []

    def test_instance_draws_ok(self):
        # draws on an rng variable are the sanctioned pattern
        assert rules_of(
            """
            def draw(rng):
                return rng.random() + rng.choice([1, 2])
            """
        ) == []

    def test_local_variable_named_random_ok(self):
        # no `import random` in the module: the name is not the module
        assert rules_of(
            """
            def f(random):
                return random.random()
            """
        ) == []


class TestNumpyRandom:
    def test_global_numpy_draw_flagged(self):
        assert rules_of(
            """
            import numpy as np
            noise = np.random.rand(10)
            """
        ) == ["D102"]

    def test_np_random_seed_flagged(self):
        assert rules_of(
            """
            import numpy as np
            np.random.seed(0)
            """
        ) == ["D102"]

    def test_default_rng_seeded_ok(self):
        assert rules_of(
            """
            import numpy as np
            rng = np.random.default_rng(7)
            """
        ) == []

    def test_default_rng_unseeded_flagged(self):
        assert rules_of(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        ) == ["D102"]


class TestWallClock:
    def test_time_time_flagged(self):
        assert rules_of(
            """
            import time
            t0 = time.time()
            """
        ) == ["D103"]

    def test_perf_counter_flagged(self):
        assert rules_of(
            """
            import time
            t0 = time.perf_counter()
            """
        ) == ["D103"]

    def test_datetime_now_flagged(self):
        assert rules_of(
            """
            import datetime
            stamp = datetime.datetime.now()
            """
        ) == ["D103"]

    def test_from_datetime_import_now_flagged(self):
        assert rules_of(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        ) == ["D103"]

    def test_sim_clock_ok(self):
        assert rules_of(
            """
            def window(sim):
                return sim.now + 1.0
            """
        ) == []


class TestSetIteration:
    def test_for_over_set_call_flagged(self):
        assert rules_of(
            """
            def f(items):
                for x in set(items):
                    yield x
            """
        ) == ["D104"]

    def test_comprehension_over_set_literal_flagged(self):
        assert rules_of(
            """
            def f():
                return [x for x in {1, 2, 3}]
            """
        ) == ["D104"]

    def test_list_of_set_flagged(self):
        assert rules_of(
            """
            def f(items):
                for x in list(set(items)):
                    yield x
            """
        ) == ["D104"]

    def test_sorted_set_ok(self):
        assert rules_of(
            """
            def f(items):
                for x in sorted(set(items)):
                    yield x
            """
        ) == []

    def test_membership_ok(self):
        assert rules_of(
            """
            def f(items, known):
                return [x for x in items if x not in set(known)]
            """
        ) == []


class TestFindingShape:
    def test_location_and_rule_id_present(self):
        findings = run_pass(
            check_determinism,
            "simnet/engine.py",
            "import time\nt0 = time.time()\n",
        )
        (finding,) = findings
        assert finding.path == "simnet/engine.py"
        assert finding.line == 2
        assert finding.rule == "D103"
        assert "simnet/engine.py:2" in finding.render()
        assert "D103" in finding.render()


class TestSessionIsolation:
    """D105: module-level mutable state in simnet couples sessions."""

    def test_list_literal_flagged(self):
        assert rules_of(
            """
            _pool = []
            """
        ) == ["D105"]

    def test_dict_and_set_literals_flagged(self):
        assert rules_of(
            """
            _by_flow = {}
            _seen = set()
            """
        ) == ["D105", "D105"]

    def test_collections_containers_flagged(self):
        assert rules_of(
            """
            import collections
            _queues = collections.defaultdict(list)
            _ring = collections.deque()
            """
        ) == ["D105", "D105"]

    def test_annotated_assignment_flagged(self):
        assert rules_of(
            """
            from typing import List
            _graveyard: List[int] = []
            """
        ) == ["D105"]

    def test_comprehension_flagged(self):
        assert rules_of(
            """
            _tbl = {i: [] for i in range(4)}
            """
        ) == ["D105"]

    def test_all_caps_constant_exempt(self):
        assert rules_of(
            """
            RATE_TABLE = [1, 2, 5.5, 11]
            PRESETS = {"dsl": 1}
            """
        ) == []

    def test_dunder_exempt(self):
        assert rules_of(
            """
            __all__ = ["Packet"]
            """
        ) == []

    def test_immutable_values_exempt(self):
        assert rules_of(
            """
            _modes = ("batched", "stdlib")
            _names = frozenset({"a", "b"})
            _floor = 256
            """
        ) == []

    def test_function_and_class_scope_exempt(self):
        assert rules_of(
            """
            def build():
                cache = {}
                return cache

            class Endpoint:
                def __init__(self):
                    self.out_of_order = []
            """
        ) == []

    def test_only_applies_under_simnet(self):
        findings = run_pass(check_determinism, "analysis/cache.py", "_cache = {}\n")
        assert findings == []
        findings = run_pass(
            check_determinism,
            "src/repro/simnet/packet.py", "_pool = []\n"
        )
        assert [f.rule for f in findings] == ["D105"]
