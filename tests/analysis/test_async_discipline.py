"""A6xx async-discipline pass: firing and clean cases."""

import textwrap

import pytest

from repro.analysis import check_async_discipline

from .conftest import run_pass


def rules_for(source: str):
    findings = run_pass(check_async_discipline, "mod.py", textwrap.dedent(source))
    return sorted(f.rule for f in findings)


class TestA601Blocking:
    def test_time_sleep_in_coroutine_fires(self):
        assert rules_for(
            """
            import time

            async def handler():
                time.sleep(0.1)
            """
        ) == ["A601"]

    def test_aliased_import_still_fires(self):
        assert rules_for(
            """
            import time as t

            async def handler():
                t.sleep(0.1)
            """
        ) == ["A601"]

    def test_from_import_fires(self):
        assert rules_for(
            """
            from time import sleep

            async def handler():
                sleep(0.1)
            """
        ) == ["A601"]

    def test_open_and_path_helpers_fire(self):
        assert rules_for(
            """
            from pathlib import Path

            async def handler(path):
                open(path).read()
                Path(path).read_text()
            """
        ) == ["A601", "A601"]

    def test_subprocess_and_urlopen_fire(self):
        assert rules_for(
            """
            import subprocess
            import urllib.request

            async def handler():
                subprocess.run(["ls"])
                urllib.request.urlopen("http://x")
            """
        ) == ["A601", "A601"]

    def test_sleep_in_sync_function_is_clean(self):
        assert rules_for(
            """
            import time

            def poll():
                time.sleep(0.1)
            """
        ) == []

    def test_sleep_in_nested_sync_def_is_clean(self):
        # the executor callback is exactly where blocking work belongs
        assert rules_for(
            """
            import time

            async def handler(loop):
                def work():
                    time.sleep(0.1)
                await loop.run_in_executor(None, work)
            """
        ) == []

    def test_asyncio_sleep_is_clean(self):
        assert rules_for(
            """
            import asyncio

            async def handler():
                await asyncio.sleep(0.1)
            """
        ) == []

    def test_nested_async_def_inside_sync_def_checked(self):
        assert rules_for(
            """
            import time

            def factory():
                async def inner():
                    time.sleep(1)
                return inner
            """
        ) == ["A601"]


class TestA602Unawaited:
    def test_bare_call_of_module_coroutine_fires(self):
        assert rules_for(
            """
            async def worker():
                pass

            async def main():
                worker()
            """
        ) == ["A602"]

    def test_self_method_call_fires(self):
        assert rules_for(
            """
            class Server:
                async def flush(self):
                    pass

                async def run(self):
                    self.flush()
            """
        ) == ["A602"]

    def test_awaited_and_tasked_calls_are_clean(self):
        assert rules_for(
            """
            import asyncio

            async def worker():
                pass

            async def main():
                await worker()
                task = asyncio.create_task(worker())
                await task
            """
        ) == []

    def test_assigned_coroutine_object_is_clean(self):
        # deliberate capture for later awaiting/gathering
        assert rules_for(
            """
            import asyncio

            async def worker():
                pass

            async def main():
                pending = [worker() for _ in range(3)]
                await asyncio.gather(*pending)
            """
        ) == []

    def test_sync_helper_call_is_clean(self):
        assert rules_for(
            """
            def helper():
                pass

            async def main():
                helper()
            """
        ) == []


class TestA603SharedMutation:
    def test_module_dict_item_assignment_fires(self):
        assert rules_for(
            """
            CACHE = {}

            async def handler(key, value):
                CACHE[key] = value
            """
        ) == ["A603"]

    def test_module_list_append_fires(self):
        assert rules_for(
            """
            PENDING = []

            async def handler(item):
                PENDING.append(item)
            """
        ) == ["A603"]

    def test_class_attribute_mutation_fires(self):
        assert rules_for(
            """
            class Registry:
                entries = {}

                async def put(self, key, value):
                    self.entries[key] = value
            """
        ) == ["A603"]

    def test_del_item_fires(self):
        assert rules_for(
            """
            SESSIONS = {}

            async def drop(key):
                del SESSIONS[key]
            """
        ) == ["A603"]

    def test_atomic_swap_is_clean(self):
        # the sanctioned idiom: build new state, rebind wholesale
        assert rules_for(
            """
            CACHE = {}

            async def handler(key, value):
                global CACHE
                updated = dict(CACHE)
                updated[key] = value
                CACHE = updated
            """
        ) == []

    def test_instance_state_from_init_is_clean(self):
        # per-instance containers are owned by one connection/task chain
        assert rules_for(
            """
            class Connection:
                def __init__(self):
                    self.queue = []

                async def push(self, item):
                    self.queue.append(item)
            """
        ) == []

    def test_local_container_is_clean(self):
        assert rules_for(
            """
            async def handler(items):
                batch = []
                for item in items:
                    batch.append(item)
                return batch
            """
        ) == []

    def test_mutation_in_sync_function_is_clean(self):
        assert rules_for(
            """
            CACHE = {}

            def prime(key, value):
                CACHE[key] = value
            """
        ) == []


class TestServeDogfood:
    """The serving layer is the A6xx pass's home turf: it must stay clean
    (its atomic-swap and per-connection-state idioms are the sanctioned
    patterns the rules encode), and the pass must actually walk it."""

    def test_serve_package_is_a6xx_clean(self, repo_lint_result):
        a6xx = [
            f for f in repo_lint_result.findings
            if f.rule.startswith("A6") and not f.suppressed
        ]
        assert a6xx == [], [f.render() for f in a6xx]

    def test_pass_really_walks_serve_coroutines(self):
        # guard against the pass silently skipping the package: seeding a
        # violation into the real serve/http.py source must fire
        from tests.analysis.conftest import REPO_ROOT

        source = (REPO_ROOT / "src/repro/serve/http.py").read_text()
        assert "async def drain" in source
        seeded = source.replace(
            "async def drain(self) -> None:",
            "async def drain(self) -> None:\n"
            "        import time\n"
            "        time.sleep(1)",
            1,
        )
        findings = run_pass(check_async_discipline, "serve/http.py", seeded)
        assert "A601" in {f.rule for f in findings}


class TestSeverities:
    @pytest.mark.parametrize("rule,severity", [
        ("A601", "error"), ("A602", "error"), ("A603", "warning"),
    ])
    def test_catalog_severity(self, rule, severity):
        from repro.analysis import RULES

        assert RULES[rule].severity == severity
