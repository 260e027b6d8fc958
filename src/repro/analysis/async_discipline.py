"""Async-discipline pass (rules A601-A603).

The serving layer runs on a single asyncio event loop; its latency
story only holds while every coroutine cooperates.  This pass walks a
module's AST and flags the three ways cooperation silently breaks:

* **A601** — a blocking call inside an ``async def``: ``time.sleep``,
  the builtin ``open`` (and ``io.open`` / ``Path``-style
  ``read_text``/``write_text``/``read_bytes``/``write_bytes`` method
  calls), ``subprocess`` invocations, and synchronous network reads
  (``socket.create_connection``, ``urllib.request.urlopen``,
  ``requests.*``).  One such call stalls *every* connection the loop is
  serving.  Calls inside a nested synchronous ``def`` are not flagged —
  the boundary is the coroutine body itself.
* **A602** — a coroutine defined in the same module called as a bare
  expression statement: the call just builds a coroutine object and
  drops it, the body never runs.  ``await``-ing it, assigning it, or
  handing it to ``asyncio.create_task`` / ``ensure_future`` / ``gather``
  are all fine.  Both module-level ``async def`` names and ``self.<m>``
  / ``cls.<m>`` method calls are resolved.
* **A603** — in-place mutation, from inside a coroutine, of a mutable
  container bound at module or class level (``CACHE.append(...)``,
  ``Klass.registry[k] = v``, ``self.shared.update(...)`` where
  ``shared`` is a class attribute).  Between any two awaits another
  task may observe the half-applied update; the sanctioned idioms are
  the ones the micro-batcher and model registry use — build the new
  state, then rebind in one assignment (atomic swap), which this pass
  deliberately leaves untouched.

The pass is cheap on modules with no ``async def`` (one walk, no
findings possible), so the runner applies it to every file.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding

#: dotted calls that block the loop (module alias aware)
_BLOCKING_DOTTED = {
    ("time", "sleep"): "time.sleep() suspends the whole event loop",
    ("socket", "create_connection"):
        "socket.create_connection() blocks until the peer answers",
    ("subprocess", "run"): "subprocess.run() waits for the child",
    ("subprocess", "call"): "subprocess.call() waits for the child",
    ("subprocess", "check_call"): "subprocess.check_call() waits for the child",
    ("subprocess", "check_output"):
        "subprocess.check_output() waits for the child",
    ("urllib", "request", "urlopen"):
        "urllib.request.urlopen() performs blocking network I/O",
    ("requests", "get"): "requests performs blocking network I/O",
    ("requests", "post"): "requests performs blocking network I/O",
    ("requests", "put"): "requests performs blocking network I/O",
    ("requests", "delete"): "requests performs blocking network I/O",
    ("requests", "request"): "requests performs blocking network I/O",
}

#: bare names that block when called inside a coroutine
_BLOCKING_NAMES = {
    "open": "open() performs blocking file I/O",
}

#: method names that are file I/O on any receiver (Path-style helpers)
_BLOCKING_METHODS = {
    "read_text", "write_text", "read_bytes", "write_bytes",
}

#: call targets that legitimately take a coroutine object (A602 escapes)
_COROUTINE_SINKS = {
    "create_task", "ensure_future", "gather", "wait", "wait_for",
    "run", "run_until_complete", "run_coroutine_threadsafe", "as_completed",
    "shield", "timeout",
}

#: method calls that mutate their receiver in place
_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popitem", "clear", "update", "setdefault", "sort", "reverse",
    "appendleft", "extendleft", "popleft",
}

#: constructors whose module/class-level result counts as mutable state
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
}


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _assigned_mutables(body: List[ast.stmt]) -> Set[str]:
    """Names bound to mutable containers by plain assignments in ``body``."""
    names: Set[str] = set()
    for stmt in body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _dotted(node: ast.expr) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _ModuleIndex:
    """What the whole module declares: coroutines and mutable state."""

    def __init__(self, tree: ast.Module) -> None:
        #: module-level async function names
        self.module_coroutines: Set[str] = set()
        #: class name -> its async method names
        self.class_coroutines: Dict[str, Set[str]] = {}
        #: module-level names bound to mutable containers
        self.module_mutables: Set[str] = _assigned_mutables(tree.body)
        #: class name -> class-level attrs bound to mutable containers
        self.class_mutables: Dict[str, Set[str]] = {}
        #: import aliases: local name -> canonical dotted module
        self.aliases: Dict[str, str] = {}
        #: whether any ``async def`` appears, at any depth
        self.has_coroutines = False

        for node in tree.body:
            if isinstance(node, ast.AsyncFunctionDef):
                self.module_coroutines.add(node.name)
            elif isinstance(node, ast.ClassDef):
                methods = {
                    stmt.name for stmt in node.body
                    if isinstance(stmt, ast.AsyncFunctionDef)
                }
                self.class_coroutines[node.name] = methods
                self.class_mutables[node.name] = _assigned_mutables(node.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name
                    if alias.asname is None and "." in alias.name:
                        target = alias.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases.setdefault(local, f"{module}.{alias.name}")
            elif isinstance(node, ast.AsyncFunctionDef):
                self.has_coroutines = True

    #: every async method name anywhere in the module (for self.<m> calls,
    #: where the defining class is not statically known)
    def any_class_coroutine(self, name: str) -> bool:
        return any(name in methods for methods in self.class_coroutines.values())


class AsyncDisciplineVisitor(ast.NodeVisitor):
    """Collects A6xx findings for one module."""

    def __init__(self, path: str, source_lines: List[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.findings: List[Finding] = []
        self.index: Optional[_ModuleIndex] = None
        #: name of the class whose body we are currently inside, if any
        self._class: Optional[str] = None

    # ------------------------------------------------------------- helpers

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        self.findings.append(
            Finding(
                path=self.path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
                source=(self.lines[lineno - 1].strip()
                        if 0 < lineno <= len(self.lines) else ""),
            )
        )

    def _resolve(self, dotted: Tuple[str, ...]) -> Tuple[str, ...]:
        """Map the leading alias of a dotted path to its canonical module."""
        assert self.index is not None
        head = self.index.aliases.get(dotted[0])
        if head is None:
            return dotted
        return tuple(head.split(".")) + dotted[1:]

    # ------------------------------------------------------------ dispatch

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        previous, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = previous

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_coroutine_body(node)
        # nested defs are visited for their own async functions only;
        # generic_visit would re-enter the body we just checked
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.AsyncFunctionDef):
                    self._check_coroutine_body(inner)

    # ------------------------------------------------------- the real work

    def _coroutine_statements(self, fn: ast.AsyncFunctionDef):
        """Statements lexically inside ``fn`` but not in nested defs."""
        stack: List[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            yield node
            for child in ast.iter_child_nodes(node):
                stack.append(child)

    def _check_coroutine_body(self, fn: ast.AsyncFunctionDef) -> None:
        assert self.index is not None
        for node in self._coroutine_statements(fn):
            if isinstance(node, ast.Call):
                self._check_blocking(node)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                self._check_unawaited(node.value)
            self._check_shared_mutation(node)

    # A601 ----------------------------------------------------------------

    def _check_blocking(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            why = _BLOCKING_NAMES.get(func.id)
            if why is not None:
                self._add(node, "A601",
                          f"{why}; it blocks the event loop — run it before "
                          "entering the coroutine or via run_in_executor")
                return
            # fall through: `from time import sleep` binds a bare name
            # whose alias resolves to a blocking dotted target
        dotted = _dotted(func)
        if dotted is not None:
            resolved = self._resolve(dotted)
            for target, why in _BLOCKING_DOTTED.items():
                if resolved[:len(target)] == target:
                    self._add(node, "A601",
                              f"{why}; it blocks the event loop — await the "
                              "async equivalent instead")
                    return
        if (isinstance(func, ast.Attribute)
                and func.attr in _BLOCKING_METHODS):
            self._add(node, "A601",
                      f".{func.attr}() performs blocking file I/O on the "
                      "event loop — read/write before entering the "
                      "coroutine or via run_in_executor")

    # A602 ----------------------------------------------------------------

    def _check_unawaited(self, call: ast.Call) -> None:
        assert self.index is not None
        func = call.func
        name: Optional[str] = None
        if isinstance(func, ast.Name) and func.id in self.index.module_coroutines:
            name = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and self.index.any_class_coroutine(func.attr)
        ):
            name = func.attr
        if name is not None:
            self._add(call, "A602",
                      f"coroutine {name}() is called but never awaited; the "
                      "call only builds a coroutine object — await it or "
                      "wrap it in asyncio.create_task(...)")

    # A603 ----------------------------------------------------------------

    def _is_shared(self, node: ast.expr) -> Optional[str]:
        """Describe ``node`` if it names module/class-level mutable state."""
        assert self.index is not None
        if isinstance(node, ast.Name):
            if node.id in self.index.module_mutables:
                return f"module-level container {node.id}"
            return None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, attr = node.value.id, node.attr
            if owner in ("self", "cls"):
                klass = self._class
                if klass and attr in self.index.class_mutables.get(klass, ()):
                    return f"class-level container {klass}.{attr}"
                return None
            if attr in self.index.class_mutables.get(owner, ()):
                return f"class-level container {owner}.{attr}"
        return None

    def _check_shared_mutation(self, node: ast.AST) -> None:
        described: Optional[str] = None
        how = ""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
        ):
            described = self._is_shared(node.func.value)
            how = f".{node.func.attr}(...)"
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    described = self._is_shared(target.value)
                    how = "[...] assignment"
                elif (isinstance(node, ast.AugAssign)
                      and isinstance(target, ast.Attribute)):
                    described = self._is_shared(target)
                    how = "augmented assignment"
                if described:
                    break
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    described = self._is_shared(target.value)
                    how = "del item"
                if described:
                    break
        if described:
            self._add(node, "A603",
                      f"{described} mutated in place ({how}) from a "
                      "coroutine; rebuild and rebind it in one assignment "
                      "(atomic swap) so no awaiting task sees a partial "
                      "update")

    # ----------------------------------------------------------------- run

    def run(self, tree: ast.Module) -> List[Finding]:
        self.index = _ModuleIndex(tree)
        if self.index.has_coroutines:  # every A6xx rule is coroutine-local
            self.visit(tree)
        return self.findings


def check_async_discipline(
    path: str, source: str, tree: ast.Module
) -> List[Finding]:
    """All A6xx findings for one module's parsed source."""
    visitor = AsyncDisciplineVisitor(path, source.splitlines())
    return visitor.run(tree)
