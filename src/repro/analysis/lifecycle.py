"""Fault-lifecycle pass (rules F301-F303).

A fault is a paired state mutation on the testbed: ``apply`` pushes the
impairment in, ``clear`` restores what it saved.  A subclass that forgets
one half leaks state into every later scenario of the campaign — the
fault equivalent of an unbalanced lock.  Each concrete fault must also
declare *where its signature is observable* (``VANTAGE_SCOPE``), which is
the paper's deployment question (Section 5.3: only RSSI-equipped vantage
points can separate the wireless faults).

* **F301** (error): a concrete ``Fault`` subclass defines only one of
  ``apply`` / ``clear``.
* **F302** (warning): ``apply`` never sets ``self.active = True``, or
  ``clear`` never resets ``self.active = False``, or ``clear`` does not
  guard on ``self.active`` (double-clear must be a no-op).
* **F303** (error): missing or malformed ``VANTAGE_SCOPE`` declaration —
  it must be a tuple/list literal of names from
  ``("mobile", "router", "server")``.

A class is *concrete* when it carries a ``name = "<literal>"`` class
attribute other than ``"abstract"``; intermediate helpers stay exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.findings import Finding

VALID_VANTAGE_POINTS = ("mobile", "router", "server")

#: base-class names that mark a fault hierarchy member
_FAULT_BASES = {"Fault"}


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


def _methods(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef)
    }


def _sets_self_active(fn: ast.FunctionDef, value: bool) -> bool:
    for inner in ast.walk(fn):
        if not isinstance(inner, ast.Assign):
            continue
        for target in inner.targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "active"
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(inner.value, ast.Constant)
                and inner.value.value is value
            ):
                return True
    return False


def _guards_on_active(fn: ast.FunctionDef) -> bool:
    """Whether the body tests ``self.active`` anywhere."""
    for inner in ast.walk(fn):
        if isinstance(inner, ast.Attribute) and inner.attr == "active":
            if isinstance(inner.value, ast.Name) and inner.value.id == "self":
                if isinstance(inner.ctx, ast.Load):
                    return True
    return False


def _check_vantage_scope(node: ast.ClassDef) -> Optional[str]:
    """None when the declaration is well-formed, else a message."""
    assign = _class_attr(node, "VANTAGE_SCOPE")
    if assign is None:
        return (
            "missing VANTAGE_SCOPE declaration; declare the vantage points "
            "whose probes observe this fault's signature, e.g. "
            "VANTAGE_SCOPE = (\"mobile\", \"router\")"
        )
    value = assign.value
    if not isinstance(value, (ast.Tuple, ast.List)) or not value.elts:
        return "VANTAGE_SCOPE must be a non-empty tuple of vantage-point names"
    for element in value.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return "VANTAGE_SCOPE entries must be string literals"
        if element.value not in VALID_VANTAGE_POINTS:
            return (
                f"unknown vantage point {element.value!r} in VANTAGE_SCOPE; "
                f"valid: {VALID_VANTAGE_POINTS}"
            )
    return None


def check_lifecycle(path: str, source: str, tree: ast.Module) -> List[Finding]:
    """All F3xx findings for one faults module."""
    lines = source.splitlines()
    findings: List[Finding] = []

    def add(node: ast.AST, rule: str, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        findings.append(
            Finding(
                path=path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
                source=lines[lineno - 1].strip() if 0 < lineno <= len(lines) else "",
            )
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not (_FAULT_BASES & set(_base_names(node))):
            continue
        fault_name = _concrete_name(node)
        if fault_name is None:
            continue

        methods = _methods(node)
        has_apply = "apply" in methods
        has_clear = "clear" in methods
        if has_apply != has_clear:
            missing = "clear" if has_apply else "apply"
            add(node, "F301",
                f"fault {fault_name!r} defines "
                f"{'apply' if has_apply else 'clear'}() but not {missing}(); "
                "inject and teardown must be paired")
        if has_apply and not _sets_self_active(methods["apply"], True):
            add(methods["apply"], "F302",
                f"{fault_name}.apply() never sets self.active = True")
        if has_clear:
            if not _sets_self_active(methods["clear"], False):
                add(methods["clear"], "F302",
                    f"{fault_name}.clear() never resets self.active = False")
            elif not _guards_on_active(methods["clear"]):
                add(methods["clear"], "F302",
                    f"{fault_name}.clear() does not guard on self.active; "
                    "double-clear must be a no-op")
        scope_problem = _check_vantage_scope(node)
        if scope_problem is not None:
            add(node, "F303", f"fault {fault_name!r}: {scope_problem}")
    return findings
