"""Wire-schema consistency pass (rules W701-W703).

:mod:`repro.schemas` is the single registry of every versioned wire tag
(``repro-record-v1``, ``repro-trace-v1``, ...).  This pass keeps the
registry honest in both directions:

* **W701** — a versioned tag written as a string literal (or spliced
  together in an f-string) anywhere *outside* the registry module.
  Literals drift: the producer bumps its copy, the consumer keeps the
  old one, and nothing fails until the payload is rejected in the field.
* **W702** — a registered tag whose declaration no longer matches
  reality: a non-legacy tag with no producer, any tag with no consumer,
  or a declared producer/consumer module that is present in the linted
  tree but never actually references the tag.  These findings anchor at
  the :class:`~repro.schemas.WireSchema` entry so the fix is edited where
  the claim is made.
* **W703** — a CLI envelope emitted for a command whose
  ``repro-<cmd>-v1`` tag is not registered.

The pass is split the same way the metric-schema pass is: *extraction*
(:func:`extract_wire_facts`) is per-file, *resolution*
(:func:`check_wire_schema`) is global and cheap.  The registry itself is
recovered statically from the AST of the linted tree's own ``schemas.py``
— the pass never imports the module under analysis, so synthetic test
trees can carry their own registries.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding

#: a full versioned wire tag, e.g. ``repro-record-v1``
TAG_RE = re.compile(r"^repro-[a-z0-9][a-z0-9-]*-v\d+$")

#: f-string version suffix, e.g. the ``-v1`` tail of f"repro-{cmd}-v1"
_VERSION_TAIL_RE = re.compile(r"-v\d+$")

#: functions that mint/emit a CLI envelope; their first argument is the
#: subcommand name whose tag must be registered
ENVELOPE_EMITTERS = {"envelope_tag", "_print_envelope", "_envelope_line"}

#: module names recognised as "the registry" in an import statement
_SCHEMAS_MODULES_RE = re.compile(r"(^|\.)schemas$")


def is_registry_module(rel_path: str) -> bool:
    """Whether a package-relative path is the wire-schema registry."""
    return rel_path.replace("\\", "/").split("/")[-1] == "schemas.py"


@dataclass(frozen=True)
class WireRef:
    """One wire-schema-relevant occurrence in source."""

    name: str  # tag text, or command name for envelope emissions
    path: str
    line: int
    col: int
    source: str


@dataclass(frozen=True)
class RegistryEntry:
    """One ``WireSchema(...)`` declaration, statically recovered."""

    tag: str
    producers: Tuple[str, ...]
    consumers: Tuple[str, ...]
    legacy: bool
    path: str
    line: int
    col: int
    source: str


@dataclass
class WireFacts:
    """Everything the W7xx resolution step needs from one file."""

    rel: str
    #: full tag literals outside the registry (W701 candidates)
    tag_literals: List[WireRef] = field(default_factory=list)
    #: f-strings that splice a versioned tag together (W701 candidates)
    fstring_tags: List[WireRef] = field(default_factory=list)
    #: constant names this file imports/uses from the schemas module
    constants_used: List[str] = field(default_factory=list)
    #: envelope emissions with a literal command name (W703 candidates)
    envelope_commands: List[WireRef] = field(default_factory=list)
    #: recovered registry — only for the schemas module itself
    registry_constants: Dict[str, str] = field(default_factory=dict)
    registry_entries: List[RegistryEntry] = field(default_factory=list)


def _literal_external(node: ast.expr, external_prefix: str) -> Optional[str]:
    """Resolve one producers/consumers element to its declared string.

    Handles plain literals and the ``EXTERNAL + "..."`` idiom.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = node.left, node.right
        if (
            isinstance(left, ast.Name)
            and left.id == "EXTERNAL"
            and isinstance(right, ast.Constant)
            and isinstance(right.value, str)
        ):
            return external_prefix + right.value
    return None


def _extract_registry(facts: WireFacts, tree: ast.Module,
                      lines: List[str], shown: str) -> None:
    """Recover constants and ``WireSchema(...)`` entries from the AST."""
    external_prefix = "external:"
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not (isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)):
            continue
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "EXTERNAL":
                external_prefix = stmt.value.value
            elif TAG_RE.match(stmt.value.value):
                facts.registry_constants[target.id] = stmt.value.value

    def resolve_tag(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return facts.registry_constants.get(node.id)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def resolve_side(node: Optional[ast.expr]) -> Tuple[str, ...]:
        if not isinstance(node, (ast.Tuple, ast.List)):
            return ()
        out: List[str] = []
        for element in node.elts:
            declared = _literal_external(element, external_prefix)
            if declared is not None:
                out.append(declared)
        return tuple(out)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "WireSchema":
            continue
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        tag_node = kwargs.get("tag", node.args[0] if node.args else None)
        tag = resolve_tag(tag_node) if tag_node is not None else None
        if tag is None:
            continue
        legacy_node = kwargs.get("legacy")
        legacy = bool(isinstance(legacy_node, ast.Constant)
                      and legacy_node.value is True)
        lineno = node.lineno
        facts.registry_entries.append(
            RegistryEntry(
                tag=tag,
                producers=resolve_side(kwargs.get("producers")),
                consumers=resolve_side(kwargs.get("consumers")),
                legacy=legacy,
                path=shown,
                line=lineno,
                col=node.col_offset + 1,
                source=(lines[lineno - 1].strip()
                        if 0 < lineno <= len(lines) else ""),
            )
        )


def extract_wire_facts(
    rel_path: str, source: str, tree: ast.Module, shown: Optional[str] = None
) -> WireFacts:
    """Per-file W7xx facts (``tree`` is ``source`` parsed).

    ``rel_path`` is the package-relative identity used for registry
    matching; ``shown`` (default: ``rel_path``) is the display path that
    findings anchor to.
    """
    shown = rel_path if shown is None else shown
    lines = source.splitlines()
    facts = WireFacts(rel=rel_path)

    if is_registry_module(rel_path):
        _extract_registry(facts, tree, lines, shown)
        return facts

    def ref(name: str, node: ast.AST) -> WireRef:
        lineno = getattr(node, "lineno", 0)
        return WireRef(
            name=name,
            path=shown,
            line=lineno,
            col=getattr(node, "col_offset", 0) + 1,
            source=(lines[lineno - 1].strip()
                    if 0 < lineno <= len(lines) else ""),
        )

    #: local aliases for `import repro.schemas as x` style module imports
    module_aliases: Set[str] = set()
    used: List[str] = []

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if _SCHEMAS_MODULES_RE.search(node.module):
                used.extend(alias.name for alias in node.names
                            if alias.name != "*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _SCHEMAS_MODULES_RE.search(alias.name):
                    module_aliases.add(alias.asname
                                       or alias.name.split(".")[0])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if TAG_RE.match(node.value):
                facts.tag_literals.append(ref(node.value, node))
        elif isinstance(node, ast.JoinedStr):
            parts = [p.value for p in node.values
                     if isinstance(p, ast.Constant) and isinstance(p.value, str)]
            if (
                parts
                and any(isinstance(p, ast.FormattedValue) for p in node.values)
                and parts[0].startswith("repro-")
                and _VERSION_TAIL_RE.search(parts[-1])
            ):
                facts.fstring_tags.append(ref("".join(parts), node))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if (
                name in ENVELOPE_EMITTERS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                facts.envelope_commands.append(ref(node.args[0].value, node))

    if module_aliases:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases
            ):
                used.append(node.attr)
    facts.constants_used = sorted(set(used))
    return facts


def _envelope_to_tag(command: str) -> str:
    # mirrors repro.schemas.envelope_tag without importing it: the pass
    # must work on synthetic trees that never hit sys.path
    # repro: allow[W701] deliberate mirror of envelope_tag, not a drift risk
    return f"repro-{command}-v1"


def check_wire_schema(all_facts: List[WireFacts]) -> List[Finding]:
    """Global W7xx resolution over every file's extracted facts."""
    findings: List[Finding] = []
    ordered = sorted(all_facts, key=lambda f: f.rel)

    registry: Optional[WireFacts] = next(
        (f for f in ordered if f.registry_entries or f.registry_constants),
        None,
    )
    registered_tags: Set[str] = (
        {entry.tag for f in ordered for entry in f.registry_entries}
    )

    # W701: versioned tag literals / f-string construction outside the
    # registry.  Registry-independent: the literal is the problem.
    for facts in ordered:
        for wref in facts.tag_literals:
            findings.append(
                Finding(
                    path=wref.path, line=wref.line, col=wref.col,
                    rule="W701",
                    message=(
                        f"wire-schema tag {wref.name!r} written as a literal; "
                        "import the constant from the schemas registry so "
                        "producers and consumers cannot drift"
                    ),
                    source=wref.source,
                )
            )
        for wref in facts.fstring_tags:
            findings.append(
                Finding(
                    path=wref.path, line=wref.line, col=wref.col,
                    rule="W701",
                    message=(
                        "wire-schema tag constructed in an f-string "
                        f"({wref.name!r} with interpolation); mint it through "
                        "the registry's envelope_tag() or import the constant"
                    ),
                    source=wref.source,
                )
            )

    # W703: envelope emitted for an unregistered command tag.
    if registry is not None:
        for facts in ordered:
            for wref in facts.envelope_commands:
                tag = _envelope_to_tag(wref.name)
                if tag not in registered_tags:
                    findings.append(
                        Finding(
                            path=wref.path, line=wref.line, col=wref.col,
                            rule="W703",
                            message=(
                                f"envelope for command {wref.name!r} resolves "
                                f"to unregistered tag {tag!r}; register it in "
                                "the schemas registry"
                            ),
                            source=wref.source,
                        )
                    )

    # W702: registry entries vs reality.
    if registry is None:
        return findings
    constants_to_tag = registry.registry_constants
    present: Dict[str, WireFacts] = {f.rel: f for f in ordered}

    def references(facts: WireFacts, tag: str) -> bool:
        for name in facts.constants_used:
            if constants_to_tag.get(name) == tag:
                return True
        for wref in facts.envelope_commands:
            if _envelope_to_tag(wref.name) == tag:
                return True
        return any(wref.name == tag for wref in facts.tag_literals)

    for entry in sorted(registry.registry_entries,
                        key=lambda e: (e.line, e.tag)):
        problems: List[str] = []
        if not entry.producers and not entry.legacy:
            problems.append("no producer declared (and the tag is not legacy)")
        if not entry.consumers:
            problems.append("no consumer declared")
        for side, declared in (("producer", entry.producers),
                               ("consumer", entry.consumers)):
            for module in declared:
                if ":" in module:  # external: reference, not cross-checked
                    continue
                facts = present.get(module)
                if facts is None:  # not in this lint run — skip, stay safe
                    continue
                if not references(facts, entry.tag):
                    problems.append(
                        f"declared {side} {module} never references the tag"
                    )
        for problem in problems:
            findings.append(
                Finding(
                    path=entry.path, line=entry.line, col=entry.col,
                    rule="W702",
                    message=f"registered tag {entry.tag!r}: {problem}",
                    source=entry.source,
                )
            )
    return findings
