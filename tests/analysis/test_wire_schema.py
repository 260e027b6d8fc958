"""W7xx wire-schema pass: registry extraction, firing and clean trees."""

import textwrap

from repro.analysis import check_wire_schema, extract_wire_facts

from .conftest import run_pass

_REGISTRY_TEMPLATE = textwrap.dedent(
    """
    EXTERNAL = "external:"

    RECORD_V1 = "repro-record-v1"
    TRACE_V1 = "repro-trace-v1"
    {extra_constants}

    class WireSchema:
        def __init__(self, tag, doc, producers=(), consumers=(), legacy=False):
            pass


    SCHEMAS = (
        WireSchema(
            tag=RECORD_V1,
            doc="records",
            {record_sides}
        ),
        WireSchema(
            tag=TRACE_V1,
            doc="traces",
            producers=("writer.py",),
            consumers=(EXTERNAL + "dashboards",),
        ),
        {extra_entries}
    )
    """
)


def make_registry(
    record_sides=(
        'producers=("writer.py",),',
        'consumers=("reader.py", EXTERNAL + "tests"),',
    ),
    extra_constants="",
    extra_entries="",
):
    return _REGISTRY_TEMPLATE.format(
        record_sides="\n        ".join(record_sides),
        extra_constants=extra_constants,
        extra_entries=extra_entries,
    )


REGISTRY = make_registry()


def facts_for(tree):
    """tree: {rel: source} -> extracted facts list."""
    return [
        run_pass(extract_wire_facts, rel, textwrap.dedent(source))
        for rel, source in sorted(tree.items())
    ]


def rules_for(tree):
    return sorted(f.rule for f in check_wire_schema(facts_for(tree)))


CLEAN_WRITER = """
    from schemas import RECORD_V1, TRACE_V1

    def write(payload):
        payload["format"] = RECORD_V1
        payload["trace"] = TRACE_V1
"""

CLEAN_READER = """
    from schemas import RECORD_V1

    def read(payload):
        return payload.get("format") == RECORD_V1
"""


class TestRegistryExtraction:
    def test_constants_and_entries_recovered(self):
        facts = run_pass(extract_wire_facts, "schemas.py", REGISTRY)
        assert facts.registry_constants == {
            "RECORD_V1": "repro-record-v1",
            "TRACE_V1": "repro-trace-v1",
        }
        tags = {e.tag for e in facts.registry_entries}
        assert tags == {"repro-record-v1", "repro-trace-v1"}
        record = next(
            e for e in facts.registry_entries if e.tag == "repro-record-v1"
        )
        assert record.producers == ("writer.py",)
        assert record.consumers == ("reader.py", "external:tests")

    def test_registry_module_emits_no_literal_findings(self):
        facts = run_pass(extract_wire_facts, "schemas.py", REGISTRY)
        assert facts.tag_literals == []


class TestCleanTree:
    def test_balanced_registry_is_clean(self):
        assert rules_for({
            "schemas.py": REGISTRY,
            "writer.py": CLEAN_WRITER,
            "reader.py": CLEAN_READER,
        }) == []

    def test_absent_declared_module_is_skipped(self):
        # partial lint runs must not invent missing-reference findings
        assert rules_for({
            "schemas.py": REGISTRY,
            "writer.py": CLEAN_WRITER,
        }) == []


class TestW701Literals:
    def test_tag_literal_outside_registry_fires(self):
        assert rules_for({
            "schemas.py": REGISTRY,
            "writer.py": CLEAN_WRITER,
            "reader.py": CLEAN_READER,
            "rogue.py": 'FORMAT = "repro-record-v1"\n',
        }) == ["W701"]

    def test_unregistered_literal_still_fires(self):
        # the literal is the problem even before anyone registers the tag
        assert rules_for({
            "rogue.py": 'FORMAT = "repro-mystery-v9"\n',
        }) == ["W701"]

    def test_fstring_tag_construction_fires(self):
        assert rules_for({
            "rogue.py": 'def tag(cmd):\n    return f"repro-{cmd}-v1"\n',
        }) == ["W701"]

    def test_prose_mentioning_tags_is_clean(self):
        assert rules_for({
            "doc.py": '"""The repro-record-v1 format is documented here."""\n',
        }) == []

    def test_non_tag_strings_are_clean(self):
        assert rules_for({
            "mod.py": 'x = "repro-tools"\ny = "v1"\n',
        }) == []


class TestW702Balance:
    def test_missing_producer_fires(self):
        registry = make_registry(record_sides=(
            'consumers=("reader.py", EXTERNAL + "tests"),',
        ))
        findings = check_wire_schema(facts_for({
            "schemas.py": registry,
            "writer.py": CLEAN_WRITER,
            "reader.py": CLEAN_READER,
        }))
        assert [f.rule for f in findings] == ["W702"]
        assert "no producer" in findings[0].message

    def test_legacy_tag_needs_no_producer(self):
        registry = make_registry(record_sides=(
            'consumers=("reader.py", EXTERNAL + "tests"),',
            "legacy=True,",
        ))
        assert rules_for({
            "schemas.py": registry,
            "writer.py": CLEAN_WRITER,
            "reader.py": CLEAN_READER,
        }) == []

    def test_missing_consumer_fires(self):
        registry = make_registry(record_sides=(
            'producers=("writer.py",),',
        ))
        findings = check_wire_schema(facts_for({
            "schemas.py": registry,
            "writer.py": CLEAN_WRITER,
        }))
        assert [f.rule for f in findings] == ["W702"]
        assert "no consumer" in findings[0].message

    def test_declared_module_that_never_references_fires(self):
        findings = check_wire_schema(facts_for({
            "schemas.py": REGISTRY,
            "writer.py": CLEAN_WRITER,
            "reader.py": "def read(payload):\n    return payload\n",
        }))
        assert [f.rule for f in findings] == ["W702"]
        assert "reader.py never references" in findings[0].message

    def test_findings_anchor_at_registry_entry(self):
        findings = check_wire_schema(facts_for({
            "schemas.py": REGISTRY,
            "writer.py": CLEAN_WRITER,
            "reader.py": "x = 1\n",
        }))
        assert findings and findings[0].path == "schemas.py"
        assert "WireSchema" in findings[0].source


class TestW703Envelopes:
    def test_registered_envelope_is_clean(self):
        registry = make_registry(
            extra_constants='STATUS_ENVELOPE_V1 = "repro-status-v1"',
            extra_entries=(
                "WireSchema(\n"
                "            tag=STATUS_ENVELOPE_V1,\n"
                '            doc="status envelope",\n'
                '            producers=("cli.py",),\n'
                '            consumers=(EXTERNAL + "scripts",),\n'
                "        ),"
            ),
        )
        facts = run_pass(extract_wire_facts, "schemas.py", registry)
        assert "repro-status-v1" in {e.tag for e in facts.registry_entries}
        findings = check_wire_schema([
            facts,
            run_pass(
                extract_wire_facts,
                "cli.py",
                "def _print_envelope(command, data):\n"
                "    pass\n"
                "def main():\n"
                '    _print_envelope("status", {})\n',
            ),
            run_pass(extract_wire_facts, "writer.py", textwrap.dedent(CLEAN_WRITER)),
            run_pass(extract_wire_facts, "reader.py", textwrap.dedent(CLEAN_READER)),
        ])
        assert [f.rule for f in findings] == []

    def test_unregistered_envelope_fires(self):
        findings = check_wire_schema(facts_for({
            "schemas.py": REGISTRY,
            "writer.py": CLEAN_WRITER,
            "reader.py": CLEAN_READER,
            "cli.py": (
                "def _print_envelope(command, data):\n"
                "    pass\n"
                "def main():\n"
                '    _print_envelope("mystery", {})\n'
            ),
        }))
        assert [f.rule for f in findings] == ["W703"]
        assert "repro-mystery-v1" in findings[0].message

    def test_variable_command_is_skipped(self):
        assert rules_for({
            "schemas.py": REGISTRY,
            "writer.py": CLEAN_WRITER,
            "reader.py": CLEAN_READER,
            "cli.py": (
                "def _print_envelope(command, data):\n"
                "    pass\n"
                "def emit(command):\n"
                "    _print_envelope(command, {})\n"
            ),
        }) == []


class TestRealTree:
    def test_project_registry_is_balanced(self, repo_lint_result):
        w7xx = [
            f for f in repo_lint_result.findings
            if f.rule.startswith("W7") and not f.suppressed
        ]
        assert w7xx == [], [f.render() for f in w7xx]
