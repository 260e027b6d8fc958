"""The lint engine: one sequential pass that parses each file once."""

import ast
import collections
import json
import textwrap
from pathlib import Path

from repro.analysis import analyze_file, lint_paths

TREE = {
    "simnet/clock.py": """
        import time


        def stamp():
            return time.time()
        """,
    "probes/player.py": """
        class PlayerProbe:
            def metrics(self):
                return {"stall_events": 1.0, "orphan_metric": 2.0}
        """,
    "core/selection.py": """
        SELECTED_FEATURES = ("stall_events", "ghost_metric")
        """,
    "serve/loop.py": """
        import time

        PENDING = []


        async def handler(item):
            time.sleep(0.1)
            PENDING.append(item)
        """,
    "schemas.py": """
        EXTERNAL = "external:"
        RECORD_V1 = "repro-record-v1"


        class WireSchema:
            def __init__(self, tag, doc, producers=(), consumers=()):
                pass


        SCHEMAS = (
            WireSchema(
                tag=RECORD_V1,
                doc="records",
                producers=("pipeline/records.py",),
                consumers=(EXTERNAL + "tests",),
            ),
        )
        """,
    "pipeline/records.py": """
        def write(payload):
            # declared producer of repro records, but the reference to the
            # registry constant is gone -> W702 at the registry entry
            payload["written"] = True
        """,
}


def write_tree(root: Path) -> None:
    for rel, source in TREE.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def fingerprint(result):
    """The full serialized result — what bit-identical means."""
    return json.dumps(result.to_dict(), sort_keys=True)


class TestEquivalence:
    def test_two_runs_bit_identical(self, tmp_path):
        write_tree(tmp_path)
        first = lint_paths([tmp_path], root=tmp_path)
        second = lint_paths([tmp_path], root=tmp_path)
        assert fingerprint(first) == fingerprint(second)

    def test_expected_rules_found(self, tmp_path):
        write_tree(tmp_path)
        result = lint_paths([tmp_path], root=tmp_path)
        rules = sorted({f.rule for f in result.findings})
        assert rules == ["A601", "A603", "D103", "M201", "M202", "W702"]


class TestSingleParse:
    def test_each_file_parsed_exactly_once(self, tmp_path, monkeypatch):
        write_tree(tmp_path)
        parses = collections.Counter()
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parses[filename] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        result = lint_paths([tmp_path], root=tmp_path)
        assert result.files_checked == len(TREE)
        assert parses == collections.Counter({rel: 1 for rel in TREE})


class TestFileFactsRoundTrip:
    def test_syntax_error_recorded_not_raised(self):
        facts = analyze_file("bad.py", "bad.py", "def f(:\n")
        assert facts.parse_error is not None
        assert facts.findings == []
