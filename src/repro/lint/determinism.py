"""Set-order lint (``DET004``).

Simulation and campaign outputs must be a pure function of their
seeds: the trace archive, the campaign aggregator's byte-identical
resumes, and the chaos shrinker's oracle replays all assume that
re-running a configuration reproduces it exactly. Iterating a set
(literal, constructor, comprehension, set algebra — including
dict-view unions like ``a.keys() | b.keys()``) yields a
PYTHONHASHSEED-dependent order once str elements are involved, and
same-process double runs cannot see it: both runs share one hash seed.
Flagged in ordering-sensitive positions (``for`` targets,
``list()``/``tuple()``/``enumerate()``); ``sorted(...)``, membership
tests, and order-insensitive folds (``min``/``sum``/``len``) are fine.
Plain ``dict``/``.keys()`` iteration is exempt: insertion order is
deterministic.

Process-global RNG draws, wall-clock reads and ``id()``/``hash()`` sort
keys are left to the test suite, which fails on every mutant of theirs
seeded into the tree (``docs/static-analysis.md``).
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.core import Finding, SourceModule, scope_name

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "reversed"}


def _is_keys_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "items")
        and not node.args
    )


def _is_set_expr(node: ast.expr, set_locals: Set[str]) -> bool:
    """Whether ``node`` statically evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        left_setlike = _is_set_expr(node.left, set_locals) or _is_keys_call(node.left)
        right_setlike = _is_set_expr(node.right, set_locals) or _is_keys_call(node.right)
        # dict-view algebra (keys() | keys()) produces a *set*; require
        # at least one genuinely set-like side so int arithmetic with
        # ``-``/``|`` never matches.
        return left_setlike and right_setlike
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, module: SourceModule):
        self.module = module
        self.findings: List[Finding] = []
        self.stack: List[str] = []
        self.set_locals: List[Set[str]] = [set()]
        self._collect_set_locals(module.tree, self.set_locals[0])

    # -- bookkeeping -------------------------------------------------------

    def _collect_set_locals(self, scope: ast.AST, out: Set[str]) -> None:
        """Names bound (only) to set expressions in this scope's body.

        Walks compound statements but never descends into nested
        function/class scopes, so module-level tracking stays clean.
        """

        def visit_stmts(stmts) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        if _is_set_expr(stmt.value, out):
                            out.add(target.id)
                        else:
                            out.discard(target.id)
                for attr in ("body", "orelse", "finalbody"):
                    visit_stmts(getattr(stmt, attr, []))
                for handler in getattr(stmt, "handlers", []):
                    visit_stmts(handler.body)

        visit_stmts(getattr(scope, "body", []))

    # -- scope tracking ----------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def _visit_function(self, node) -> None:
        self.stack.append(node.name)
        locals_here: Set[str] = set(self.set_locals[-1])
        self._collect_set_locals(node, locals_here)
        self.set_locals.append(locals_here)
        self.generic_visit(node)
        self.set_locals.pop()
        self.stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- the rule ----------------------------------------------------------

    def _flag_unordered(self, iter_node: ast.expr, context: str) -> None:
        if _is_set_expr(iter_node, self.set_locals[-1]):
            self.findings.append(
                Finding(
                    rule="DET004",
                    path=self.module.relpath,
                    line=iter_node.lineno,
                    col=iter_node.col_offset + 1,
                    scope=scope_name(self.stack),
                    message=f"iteration over an unordered set expression in "
                            f"{context}; wrap in sorted() for a deterministic "
                            f"order",
                )
            )

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SENSITIVE_CALLS
            and node.args
        ):
            self._flag_unordered(node.args[0], f"{node.func.id}()")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._flag_unordered(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._flag_unordered(generator.iter, "a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    # set/dict comprehensions build unordered results; iterating a set
    # *into* one is unobservable, so only ordered comprehensions count.


def check_module(module: SourceModule) -> List[Finding]:
    """All ``DET004`` findings for one source module."""
    visitor = _DeterminismVisitor(module)
    visitor.visit(module.tree)
    return visitor.findings
