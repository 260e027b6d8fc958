"""Pipeline-stage schema pass (rule P401).

Every concrete pipeline stage must declare its item-field contract:
``CONSUMES`` (fields it reads off incoming items) and ``PRODUCES``
(fields carried by the items it yields), each a tuple/list literal of
string literals.  The declarations are what lets ``Pipeline`` validate a
flow at assembly time — an undeclared stage silently opts out of that
check, which is exactly the metric-typo hazard the M2xx pass exists to
prevent, one layer up.

A class is a *stage* when one of its bases is ``Stage``, ``Source`` or
``Sink`` (directly or via attribute access); it is *concrete* when it
carries a ``name = "<literal>"`` class attribute other than
``"abstract"`` — the same concreteness convention the fault-lifecycle
pass uses.  Field names must be non-empty and either the pass-through
sentinel ``"*"`` or dotted identifiers (``features``, ``meta.session_s``).
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.findings import Finding

#: base-class names that mark a pipeline-stage hierarchy member
STAGE_BASES = {"Stage", "Source", "Sink"}

#: the declarations rule P401 requires on every concrete stage
SCHEMA_ATTRS = ("CONSUMES", "PRODUCES")


def _base_names(node: ast.ClassDef) -> List[str]:
    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _class_attr(node: ast.ClassDef, attr: str) -> Optional[ast.Assign]:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == attr:
                    return stmt
    return None


def _concrete_name(node: ast.ClassDef) -> Optional[str]:
    assign = _class_attr(node, "name")
    if assign is None:
        return None
    value = assign.value
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return None if value.value == "abstract" else value.value
    return None


def _field_name_problem(name: str) -> Optional[str]:
    if not name:
        return "empty field name"
    if name == "*":
        return None
    for part in name.split("."):
        if not part.isidentifier():
            return f"field name {name!r} is not a dotted identifier"
    return None


def _schema_attr_problem(node: ast.ClassDef, attr: str) -> Optional[str]:
    """None when the declaration is well-formed, else a message."""
    assign = _class_attr(node, attr)
    if assign is None:
        return (
            f"missing {attr} declaration; declare the item fields this "
            f"stage {'reads' if attr == 'CONSUMES' else 'yields'} as a "
            f"tuple of string literals, e.g. {attr} = (\"features\", \"meta\")"
        )
    value = assign.value
    if not isinstance(value, (ast.Tuple, ast.List)):
        return f"{attr} must be a tuple/list literal of field-name strings"
    # () is legal for CONSUMES (sources); PRODUCES must name something.
    if attr == "PRODUCES" and not value.elts:
        return "PRODUCES must not be empty; use (\"*\",) for pass-through"
    for element in value.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return f"{attr} entries must be string literals"
        problem = _field_name_problem(element.value)
        if problem is not None:
            return f"{attr}: {problem}"
    return None


def check_pipeline_stages(
    path: str, source: str, tree: ast.Module
) -> List[Finding]:
    """All P401 findings for one pipeline module."""
    lines = source.splitlines()
    findings: List[Finding] = []

    def add(node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        findings.append(
            Finding(
                path=path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                rule="P401",
                message=message,
                source=lines[lineno - 1].strip() if 0 < lineno <= len(lines) else "",
            )
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not (STAGE_BASES & set(_base_names(node))):
            continue
        stage_name = _concrete_name(node)
        if stage_name is None:
            continue
        for attr in SCHEMA_ATTRS:
            problem = _schema_attr_problem(node, attr)
            if problem is not None:
                add(node, f"stage {stage_name!r}: {problem}")
    return findings
