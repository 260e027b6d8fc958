"""Telemetry-usage pass (rule O501).

Telemetry spans nest through a stack: a span that is opened but never
closed (or closed out of order) corrupts every enclosing span's timing.
The API therefore only hands spans out as context managers, and this
pass enforces the discipline statically, project-wide:

* every ``<expr>.span(...)`` call must be the context expression of a
  ``with`` item — assigning it (``s = tel.span(...)``), passing it
  around, or chaining into it are all findings;
* a span bound by ``with ... as s`` must not be driven manually:
  ``s.start()`` / ``s.finish()`` calls on such names are findings (the
  ``with`` statement already owns the lifetime).

Aggregate spans with non-lexical lifetimes (pipeline stage totals) go
through ``Telemetry.record_span``, which files an already-measured span
and needs no closing — that is the sanctioned escape hatch.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.analysis.findings import Finding

#: the span-acquiring method name this pass polices
SPAN_METHOD = "span"

#: lifecycle methods that must never be called on a with-bound span
MANUAL_LIFECYCLE = ("start", "finish")


def _with_items(tree: ast.AST) -> Tuple[Set[int], Set[str]]:
    """One walk over every ``with`` item, returning two sets.

    * ids of Call nodes used directly as a ``with`` context expression;
    * names bound by ``with <expr>.span(...) as <name>``.
    """
    contexts: Set[int] = set()
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if not isinstance(expr, ast.Call):
                    continue
                contexts.add(id(expr))
                if (
                    isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == SPAN_METHOD
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    aliases.add(item.optional_vars.id)
    return contexts, aliases


def check_obs_usage(path: str, source: str, tree: ast.Module) -> List[Finding]:
    """All O501 findings for one module."""
    lines = source.splitlines()
    findings: List[Finding] = []

    def add(node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        findings.append(
            Finding(
                path=path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                rule="O501",
                message=message,
                source=lines[lineno - 1].strip() if 0 < lineno <= len(lines) else "",
            )
        )

    contexts, aliases = _with_items(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == SPAN_METHOD:
            if id(node) not in contexts:
                add(
                    node,
                    "span() must be the context expression of a `with` "
                    "statement (a span opened outside `with` can never be "
                    "closed safely); use Telemetry.record_span for "
                    "non-lexical lifetimes",
                )
        elif func.attr in MANUAL_LIFECYCLE:
            if isinstance(func.value, ast.Name) and func.value.id in aliases:
                add(
                    node,
                    f"manual span lifecycle call .{func.attr}() on a "
                    "with-bound span; the `with` statement already owns "
                    "the span's lifetime",
                )
    return findings
