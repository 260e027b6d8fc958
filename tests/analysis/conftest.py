"""Shared fixtures: one lint run over the real source tree, and a helper
that drives a single per-file pass the way the runner does."""

import ast
from pathlib import Path

import pytest

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_lint_result():
    """Lint the project's own ``src/repro`` once per test session."""
    return lint_paths(
        [REPO_ROOT / "src" / "repro"],
        root=REPO_ROOT,
        baseline_path=REPO_ROOT / "lint-baseline.json",
    )


def run_pass(check, path, source, **kwargs):
    """Call one per-file pass over a single parse of ``source``.

    Every pass takes the tree as a required argument, exactly as
    ``analyze_file`` hands it over.
    """
    return check(path, source, ast.parse(source, filename=path), **kwargs)
