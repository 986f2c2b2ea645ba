"""Payload-aliasing lint (``ISO003``).

The engine composes entities through shared actions only, which is
sound only if no mutable object is reachable from two entity instances.
A received payload stored into entity state **by reference**
(``state.buffer.append(action.params[2])`` without a copy) makes the
sender and receiver alias one object — the lossy-channel duplication
bug class (``tests/test_faults.py::TestLossyChannel``). Only *container*
stores are flagged (a scalar attribute rebind is overwritten wholesale;
container-held references outlive the transition and fan out).
Ownership-transfer sites — where the sender provably never touches the
object again — and immutable payloads carry inline suppressions.

The tests cannot replace this rule: the in-tree payloads are tuples,
so an alias only shows once some sender uses a mutable one, and a
lossy channel whose second and third duplicates share one object
passes the whole suite (``docs/static-analysis.md``). Module globals
and class attributes written by entities are left to the tests, which
catch them through same-process double runs.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.core import ClassDecl, Finding, ProjectIndex, dotted_name

#: Container methods whose arguments are *retained* by the receiver.
_STORE_METHODS = {
    "append": 0, "appendleft": 0, "add": 0, "extend": 0, "extendleft": 0,
    "insert": 1, "setdefault": 1, "update": 0,
}

_COPY_CALLS = {"copy.copy", "copy.deepcopy", "deepcopy"}


def _chain_base(node: ast.expr) -> ast.expr:
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return current


def _is_copy_call(node: ast.Call) -> bool:
    name = dotted_name(node.func)
    if name in _COPY_CALLS:
        return True
    return isinstance(node.func, ast.Attribute) and node.func.attr == "copy"


def _expr_taints(
    expr: ast.expr, action_param: str, tainted: Set[str]
) -> Optional[ast.expr]:
    """The first payload-tainted sub-expression of ``expr``, if any.

    ``action`` itself and anything derived from ``action.params`` are
    tainted; ``action.name``-style metadata reads are not; anything
    wrapped in ``copy.copy``/``copy.deepcopy``/``.copy()`` is cleansed.
    """
    if isinstance(expr, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.BoolOp,
                         ast.JoinedStr)):
        return None  # arithmetic/comparison results are fresh objects
    if isinstance(expr, ast.Name):
        if expr.id == action_param or expr.id in tainted:
            return expr
        return None
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == action_param:
            return expr if expr.attr == "params" else None
        return _expr_taints(expr.value, action_param, tainted)
    if isinstance(expr, ast.Subscript):
        return _expr_taints(expr.value, action_param, tainted)
    if isinstance(expr, ast.Call):
        if _is_copy_call(expr):
            return None
        for arg in list(expr.args) + [kw.value for kw in expr.keywords]:
            hit = _expr_taints(arg, action_param, tainted)
            if hit is not None:
                return hit
        return None
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, ast.expr):
            hit = _expr_taints(child, action_param, tainted)
            if hit is not None:
                return hit
    return None


def _tainted_locals(func: ast.FunctionDef, action_param: str) -> Set[str]:
    tainted: Set[str] = set()
    for _ in range(2):  # two passes reach chained assignments
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if _expr_taints(node.value, action_param, tainted) is None:
                continue
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        tainted.add(sub.id)
    return tainted


def _method_aliases(
    decl: ClassDecl, method_name: str, func: ast.FunctionDef
) -> List[Finding]:
    """Container stores of an un-copied ``action`` payload in one method."""
    params = [arg.arg for arg in func.args.args]
    if "action" not in params[1:]:
        return []
    non_self = [p for p in params if p != "self"]
    state_param = non_self[0] if non_self[0] != "metrics" else None
    tainted = _tainted_locals(func, "action")
    findings: List[Finding] = []

    def alias(node: ast.AST, target: ast.expr, hit: ast.expr) -> None:
        findings.append(Finding(
            rule="ISO003",
            path=decl.module.relpath,
            line=node.lineno, col=node.col_offset + 1,
            scope=f"{decl.name}.{method_name}",
            message=f"{method_name}() stores received payload "
                    f"{ast.unparse(hit)} into {ast.unparse(target)} without "
                    f"copy (aliases the sender's object)",
        ))

    for node in ast.walk(func):
        # ``state[...] = payload``
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                base = _chain_base(target)
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(base, ast.Name)
                    and base.id == state_param
                    and node.value is not None
                ):
                    hit = _expr_taints(node.value, "action", tainted)
                    if hit is not None:
                        alias(node, target.value, hit)
        # ``state.buffer.append(payload)`` and the other retaining methods
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _STORE_METHODS
        ):
            receiver = node.func.value
            base = _chain_base(receiver)
            if isinstance(base, ast.Name) and base.id in ("self", state_param):
                for arg in node.args[_STORE_METHODS[node.func.attr]:]:
                    hit = _expr_taints(arg, "action", tainted)
                    if hit is not None:
                        alias(node, receiver, hit)
                        break
    return findings


def check_project(index: ProjectIndex) -> List[Finding]:
    """All ``ISO003`` findings for the project's entity/process classes."""
    findings: List[Finding] = []
    for decl in index.classes:
        if not index.is_automaton(decl):
            continue
        for method_name in sorted(decl.methods):
            if method_name != "__repr__":
                findings.extend(
                    _method_aliases(decl, method_name, decl.methods[method_name])
                )
    return findings
