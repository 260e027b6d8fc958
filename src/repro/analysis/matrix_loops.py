"""Matrix-loop pass (rule M203): per-row Python loops in ML hot paths.

The compiled-inference work moved every ``predict``/``transform`` hot
path in ``repro/ml/`` to whole-batch numpy expressions; a per-row Python
loop reintroduced there silently costs two to three orders of magnitude
at fleet batch sizes.  This pass flags, inside any function whose name
starts with ``predict`` or ``transform``, a ``for`` statement that
iterates rows of a parameter — the feature matrix — via the classic
shapes::

    for i in range(len(X)): ...
    for i in range(X.shape[0]): ...
    for row in zip(X, y): ...
    for i, row in enumerate(X): ...

where ``X`` names a parameter of the enclosing function.  Loops over
locals (chunk starts, node worklists, class indices) are untouched, as
is the object-path reference traversal (its helpers do not match the
``predict*``/``transform*`` naming).  A deliberate per-row loop — say a
scalar fallback kept for differential testing — can carry a
``# repro: allow[M203]`` suppression with its justification.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.findings import Finding


def _param_names(node: ast.AST) -> Set[str]:
    args = node.args  # type: ignore[attr-defined]
    names = {
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
    }
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    names.discard("self")
    names.discard("cls")
    return names


def _is_param(node: ast.AST, params: Set[str]) -> bool:
    return isinstance(node, ast.Name) and node.id in params


def _loops_over_param_rows(iter_node: ast.AST, params: Set[str]) -> bool:
    """Does this ``for`` iterator walk a parameter row by row?"""
    if not isinstance(iter_node, ast.Call):
        return False
    func = iter_node.func
    callee = func.id if isinstance(func, ast.Name) else None
    if callee == "range":
        # range(len(X)) / range(X.shape[0]), any argument position
        for arg in iter_node.args:
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "len"
                and arg.args
                and _is_param(arg.args[0], params)
            ):
                return True
            if (
                isinstance(arg, ast.Subscript)
                and isinstance(arg.value, ast.Attribute)
                and arg.value.attr == "shape"
                and _is_param(arg.value.value, params)
            ):
                return True
        return False
    if callee == "zip":
        return any(_is_param(arg, params) for arg in iter_node.args)
    if callee == "enumerate":
        return bool(iter_node.args) and _is_param(iter_node.args[0], params)
    return False


class _MatrixLoopVisitor(ast.NodeVisitor):
    def __init__(self, path: str, lines: List[str]) -> None:
        self.path = path
        self.lines = lines
        self.findings: List[Finding] = []
        #: parameter names of the enclosing predict*/transform* function,
        #: empty when we are not inside one
        self._hot_params: Set[str] = set()

    # ------------------------------------------------------------- visits

    def _visit_function(self, node: ast.AST) -> None:
        name = node.name  # type: ignore[attr-defined]
        if name.startswith(("predict", "transform")):
            outer = self._hot_params
            self._hot_params = _param_names(node)
            self.generic_visit(node)
            self._hot_params = outer
        else:
            # a nested helper scopes its own (non-hot) parameters
            outer = self._hot_params
            self._hot_params = set()
            self.generic_visit(node)
            self._hot_params = outer

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_For(self, node: ast.For) -> None:
        if self._hot_params and _loops_over_param_rows(
            node.iter, self._hot_params
        ):
            self._add(node)
        self.generic_visit(node)

    # ------------------------------------------------------------ helpers

    def _add(self, node: ast.For) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=node.lineno,
                col=node.col_offset + 1,
                rule="M203",
                message=(
                    "per-row Python loop over a feature matrix in a "
                    "predict/transform hot path; vectorize over the whole "
                    "batch (one numpy expression) instead"
                ),
                source=(
                    self.lines[node.lineno - 1].strip()
                    if 1 <= node.lineno <= len(self.lines)
                    else ""
                ),
            )
        )


def check_matrix_loops(
    path: str, source: str, tree: ast.Module
) -> List[Finding]:
    """All M203 findings for one module's parsed source."""
    visitor = _MatrixLoopVisitor(path, source.splitlines())
    visitor.visit(tree)
    return visitor.findings
