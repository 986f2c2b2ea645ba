"""Entity-isolation / race detector (``ISO001``–``ISO003``).

The engine composes entities through shared actions only, which is
sound only if no mutable state is reachable from two entity instances —
within one run, or from one run to the next inside one process (a
campaign worker, a conformance test's incremental/reference pair).
Balaguer & Chatain's *Avoiding Shared Clocks* result makes the same
point for timed automata: shared state must be eliminated *before*
components may advance on their own clocks. The pass builds a read/write
effect summary for every Entity/Process subclass and reports the three
ways Python code shares state behind the engine's back:

``ISO001``
    Writes to module-level globals from entity methods (``global x``
    rebinds, or in-place mutation of a module-level object). Globals
    are process-wide: every entity sees them, and they leak state
    across runs.
``ISO002``
    Mutation of class attributes from instance methods (``type(self)``
    / ``self.__class__`` / ``ClassName.x`` writes, or in-place mutation
    of a class-level mutable default that ``__init__`` never rebinds).
    Class attributes are shared by every instance of the entity family.
``ISO003``
    A received payload stored into entity state **by reference**
    (``state.buffer.append(action.params[2])`` without a copy): the
    sender and receiver then alias one object — the PR 5 lossy-channel
    duplication bug class. Only *container* stores are flagged (a
    scalar attribute rebind is overwritten wholesale; container-held
    references outlive the transition and fan out). Ownership-transfer
    sites — where the sender provably never touches the object again —
    carry inline suppressions.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.lint.core import (
    ClassDecl,
    Finding,
    MUTATOR_METHODS,
    ProjectIndex,
    SourceModule,
    dotted_name,
)

#: Container methods whose arguments are *retained* by the receiver.
_STORE_METHODS = {
    "append": 0, "appendleft": 0, "add": 0, "extend": 0, "extendleft": 0,
    "insert": 1, "setdefault": 1, "update": 0,
}

_COPY_CALLS = {"copy.copy", "copy.deepcopy", "deepcopy"}


# -- module-level bindings ----------------------------------------------------


def _module_bindings(module: SourceModule) -> Set[str]:
    names: Set[str] = set()
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def _local_names(func: ast.FunctionDef) -> Set[str]:
    names = {arg.arg for arg in func.args.args}
    names.update(arg.arg for arg in func.args.kwonlyargs)
    if func.args.vararg:
        names.add(func.args.vararg.arg)
    if func.args.kwarg:
        names.add(func.args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, (ast.For, ast.AnnAssign, ast.AugAssign)):
            target = node.target
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for sub in ast.walk(node.optional_vars):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


def _globals_declared(func: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


# -- class-shared bases -------------------------------------------------------


def _is_class_shared_base(node: ast.expr, class_name: str) -> bool:
    """``type(self)`` / ``self.__class__`` / ``ClassName`` receivers."""
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "type"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        )
    if isinstance(node, ast.Attribute):
        return (
            node.attr == "__class__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )
    if isinstance(node, ast.Name):
        return node.id == class_name
    return False


def _chain_base(node: ast.expr) -> ast.expr:
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return current


def _init_rebound_attrs(decls: Sequence[ClassDecl]) -> Set[str]:
    """Attributes ``__init__`` (anywhere in the chain) rebinds on self."""
    rebound: Set[str] = set()
    for decl in decls:
        init = decl.methods.get("__init__")
        if init is None:
            continue
        for node in ast.walk(init):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        rebound.add(target.attr)
    return rebound


# -- payload taint ------------------------------------------------------------


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


def _describe_expr(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return dotted_name(node) or "<expr>"


# -- per-class effect summary -------------------------------------------------


def class_effects(index: ProjectIndex, decl: ClassDecl) -> Dict[str, Any]:
    """The read/write effect summary of one entity/process class.

    Only locally-defined methods are analyzed (ancestors report their
    own effects); ``__repr__`` is skipped as pure formatting.
    """
    module_names = _module_bindings(decl.module)
    chain = [decl] + index.ancestors(decl)
    mutable_class_attrs: Set[str] = set()
    for current in chain:
        mutable_class_attrs.update(current.class_mutable_attrs)
    rebound = _init_rebound_attrs(chain)
    shared_defaults = mutable_class_attrs - rebound

    state_writes: Set[str] = set()
    self_writes: Set[str] = set()
    global_writes: List[Dict[str, Any]] = []
    class_mutations: List[Dict[str, Any]] = []
    aliases: List[Dict[str, Any]] = []

    for method_name in sorted(decl.methods):
        if method_name == "__repr__":
            continue
        func = decl.methods[method_name]
        params = [arg.arg for arg in func.args.args]
        locals_here = _local_names(func)
        global_decls = _globals_declared(func)
        action_param = "action" if "action" in params[1:] else None
        state_param = None
        non_self = [p for p in params if p != "self"]
        if non_self and non_self[0] not in ("metrics",):
            state_param = non_self[0]

        tainted = (
            _tainted_locals(func, action_param) if action_param else set()
        )

        for node in ast.walk(func):
            # -- writes ------------------------------------------------
            targets: List[ast.expr] = []
            values: List[Optional[ast.expr]] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                values = [node.value] * len(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
                values = [getattr(node, "value", None)]
            for target, value in zip(targets, values):
                if isinstance(target, ast.Name):
                    if target.id in global_decls:
                        global_writes.append({
                            "method": method_name, "name": target.id,
                            "line": node.lineno,
                        })
                    continue
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                base = _chain_base(target)
                if _is_class_shared_base(
                    target.value if isinstance(target, (ast.Attribute, ast.Subscript)) else target,
                    decl.name,
                ) or _is_class_shared_base(base, decl.name):
                    attr = target.attr if isinstance(target, ast.Attribute) else "?"
                    class_mutations.append({
                        "method": method_name, "name": attr,
                        "line": node.lineno,
                    })
                    continue
                if isinstance(base, ast.Name):
                    if base.id == "self" and isinstance(target, ast.Attribute):
                        if method_name != "__init__":
                            self_writes.add(target.attr)
                    elif state_param is not None and base.id == state_param:
                        if isinstance(target, ast.Attribute):
                            state_writes.add(target.attr)
                        else:
                            first = _first_attr(target, state_param)
                            if first:
                                state_writes.add(first)
                        # subscript store of a tainted payload
                        if (
                            isinstance(target, ast.Subscript)
                            and action_param is not None
                            and value is not None
                        ):
                            hit = _expr_taints(value, action_param, tainted)
                            if hit is not None:
                                aliases.append({
                                    "method": method_name,
                                    "line": node.lineno,
                                    "col": node.col_offset + 1,
                                    "target": _describe_expr(target.value),
                                    "value": _describe_expr(hit),
                                })
                    elif (
                        base.id in module_names
                        and base.id not in locals_here
                    ):
                        global_writes.append({
                            "method": method_name, "name": base.id,
                            "line": node.lineno,
                        })

            # -- in-place mutation calls -------------------------------
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                receiver = node.func.value
                base = _chain_base(receiver)
                if attr in MUTATOR_METHODS:
                    if _is_class_shared_base(receiver, decl.name) or (
                        isinstance(receiver, ast.Attribute)
                        and isinstance(receiver.value, ast.Name)
                        and receiver.value.id == "self"
                        and receiver.attr in shared_defaults
                    ):
                        name = (
                            receiver.attr
                            if isinstance(receiver, ast.Attribute)
                            else _describe_expr(receiver)
                        )
                        class_mutations.append({
                            "method": method_name, "name": name,
                            "line": node.lineno,
                        })
                    elif isinstance(base, ast.Name):
                        if base.id == "self" and isinstance(receiver, ast.Attribute):
                            self_writes.add(_first_attr(receiver, "self") or receiver.attr)
                        elif state_param is not None and base.id == state_param:
                            first = _first_attr(receiver, state_param)
                            if first:
                                state_writes.add(first)
                        elif (
                            base.id in module_names
                            and base.id not in locals_here
                        ):
                            global_writes.append({
                                "method": method_name, "name": base.id,
                                "line": node.lineno,
                            })
                # retained-argument stores of tainted payloads
                if (
                    attr in _STORE_METHODS
                    and action_param is not None
                    and isinstance(base, ast.Name)
                    and (
                        base.id == "self"
                        or (state_param is not None and base.id == state_param)
                    )
                ):
                    for arg in node.args[_STORE_METHODS[attr]:]:
                        hit = _expr_taints(arg, action_param, tainted)
                        if hit is not None:
                            aliases.append({
                                "method": method_name,
                                "line": node.lineno,
                                "col": node.col_offset + 1,
                                "target": _describe_expr(receiver),
                                "value": _describe_expr(hit),
                            })
                            break

    return {
        "state_attr_writes": sorted(state_writes),
        "self_attr_writes": sorted(self_writes),
        "global_writes": global_writes,
        "class_attr_mutations": class_mutations,
        "payload_aliases": aliases,
    }


def _first_attr(node: ast.expr, root: str) -> Optional[str]:
    chain: List[ast.expr] = []
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        chain.append(current)
        current = current.value
    if not (isinstance(current, ast.Name) and current.id == root):
        return None
    for link in reversed(chain):
        if isinstance(link, ast.Attribute):
            return link.attr
    return None


# -- findings -----------------------------------------------------------------


def check_project(index: ProjectIndex) -> List[Finding]:
    """All isolation findings (``ISO*``) for the project's entity classes."""
    findings: List[Finding] = []
    for decl in index.classes:
        if index.kind_of(decl) is None:
            continue
        effects = class_effects(index, decl)
        for entry in effects["global_writes"]:
            findings.append(Finding(
                rule="ISO001",
                path=decl.module.relpath,
                line=entry["line"], col=1,
                scope=f"{decl.name}.{entry['method']}",
                message=f"{entry['method']}() writes module-global "
                        f"{entry['name']!r} shared by all entity instances",
            ))
        for entry in effects["class_attr_mutations"]:
            findings.append(Finding(
                rule="ISO002",
                path=decl.module.relpath,
                line=entry["line"], col=1,
                scope=f"{decl.name}.{entry['method']}",
                message=f"{entry['method']}() mutates class attribute "
                        f"{entry['name']!r} shared by all instances",
            ))
        for entry in effects["payload_aliases"]:
            findings.append(Finding(
                rule="ISO003",
                path=decl.module.relpath,
                line=entry["line"], col=entry["col"],
                scope=f"{decl.name}.{entry['method']}",
                message=f"{entry['method']}() stores received payload "
                        f"{entry['value']} into {entry['target']} without "
                        f"copy (aliases the sender's object)",
            ))
    return findings
