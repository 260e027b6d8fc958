"""Pipeline-schema pass (P401): stage fixtures and routing."""

import textwrap

from repro.analysis import lint_paths
from repro.analysis.pipeline_schema import check_pipeline_stages

from .conftest import run_pass
from .test_runner import write_tree

GOOD = textwrap.dedent(
    """
    from repro.pipeline.stages import Stage

    class Featurize(Stage):
        name = "featurize"
        CONSUMES = ("features", "meta.session_s")
        PRODUCES = ("features", "labels")

        def process(self, stream):
            return stream
    """
)


def rules_of(source):
    source = textwrap.dedent(source)
    return [
        f.rule for f in run_pass(check_pipeline_stages, "pipeline/mod.py", source)
    ]


class TestP401:
    def test_well_formed_stage_is_clean(self):
        assert run_pass(check_pipeline_stages, "pipeline/mod.py", GOOD) == []

    def test_missing_consumes_flagged(self):
        source = """
        from repro.pipeline.stages import Stage

        class Bare(Stage):
            name = "bare"
            PRODUCES = ("features",)
        """
        assert rules_of(source) == ["P401"]

    def test_missing_produces_flagged(self):
        source = """
        from repro.pipeline.stages import Stage

        class Bare(Stage):
            name = "bare"
            CONSUMES = ("features",)
        """
        assert rules_of(source) == ["P401"]

    def test_empty_produces_flagged(self):
        source = """
        from repro.pipeline.stages import Sink

        class Silent(Sink):
            name = "silent"
            CONSUMES = ("*",)
            PRODUCES = ()
        """
        assert rules_of(source) == ["P401"]

    def test_empty_consumes_is_legal_for_sources(self):
        source = """
        from repro.pipeline.stages import Source

        class Feed(Source):
            name = "feed"
            CONSUMES = ()
            PRODUCES = ("features",)
        """
        assert rules_of(source) == []

    def test_computed_declaration_flagged(self):
        source = """
        from repro.pipeline.stages import Stage

        FIELDS = ("features",)

        class Dynamic(Stage):
            name = "dynamic"
            CONSUMES = FIELDS
            PRODUCES = ("features",)
        """
        assert rules_of(source) == ["P401"]

    def test_non_string_entry_flagged(self):
        source = """
        from repro.pipeline.stages import Stage

        class Mixed(Stage):
            name = "mixed"
            CONSUMES = ("features", 7)
            PRODUCES = ("features",)
        """
        assert rules_of(source) == ["P401"]

    def test_malformed_field_name_flagged(self):
        source = """
        from repro.pipeline.stages import Stage

        class Typo(Stage):
            name = "typo"
            CONSUMES = ("features", "not a field!")
            PRODUCES = ("features",)
        """
        assert rules_of(source) == ["P401"]

    def test_wildcard_and_dotted_names_are_legal(self):
        source = """
        from repro.pipeline.stages import Sink

        class Probe(Sink):
            name = "probe"
            CONSUMES = ("*",)
            PRODUCES = ("*",)
        """
        assert rules_of(source) == []

    def test_abstract_stage_skipped(self):
        source = """
        from repro.pipeline.stages import Stage

        class Base(Stage):
            name = "abstract"
        """
        assert rules_of(source) == []

    def test_unnamed_subclass_skipped(self):
        source = """
        from repro.pipeline.stages import Stage

        class Mixin(Stage):
            pass
        """
        assert rules_of(source) == []

    def test_non_stage_class_ignored(self):
        source = """
        class Config:
            name = "config"
        """
        assert rules_of(source) == []


class TestRouting:
    BAD_STAGE = textwrap.dedent(
        """
        from repro.pipeline.stages import Stage

        class Undeclared(Stage):
            name = "undeclared"
        """
    )

    def test_pipeline_package_is_linted(self, tmp_path):
        write_tree(tmp_path, "pipeline/mod.py", self.BAD_STAGE)
        result = lint_paths([tmp_path], root=tmp_path)
        assert [f.rule for f in result.new_findings] == ["P401", "P401"]

    def test_other_packages_are_not(self, tmp_path):
        write_tree(tmp_path, "core/mod.py", self.BAD_STAGE)
        assert lint_paths([tmp_path], root=tmp_path).ok

    def test_own_pipeline_package_is_clean(self, repo_lint_result):
        assert not [
            f for f in repo_lint_result.new_findings if f.rule == "P401"
        ]
