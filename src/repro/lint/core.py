"""Analyzer core: source loading, the project index, and the driver.

The framework is deliberately small: each analysis family exposes a
``check_module(module)`` or ``check_project(index)`` function returning
:class:`Finding` objects; :func:`run_lint` loads the sources once, runs
every pass, applies inline suppressions, and returns a
:class:`LintResult` whose ordering is fully deterministic (findings sort
by ``(path, line, col, rule)``, files are walked in sorted order) so two
runs over the same tree produce byte-identical reports.

Cross-file knowledge lives in :class:`ProjectIndex`: a name-based class
graph good enough to answer "is this class an Entity/Process subclass?"
without imports or a real type checker. Name resolution is heuristic —
a base name is looked up among all project classes — which is exactly
right for a codebase lint (false negatives on exotic metaprogramming
are acceptable; determinism of the answer is not).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.lint.rules import is_known_rule

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ignore\[([A-Za-z0-9_,\s]*)\]\s*(?:--\s*|:\s*)?(.*)$"
)


class LintConfigError(ReproError):
    """Unusable lint input: missing path, unparseable file, unknown rule."""


@dataclass(frozen=True)
class Finding:
    """One diagnostic; ``scope`` is the enclosing ``Class.method``."""

    rule: str
    path: str  # posix-style path relative to the scan root
    line: int
    col: int
    scope: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        """The deterministic report ordering."""
        return (self.path, self.line, self.col, self.rule, self.message)

    def location(self) -> str:
        """``path:line:col`` for compiler-style output."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class AssessedFinding:
    """A finding plus its disposition after inline suppressions."""

    finding: Finding
    status: str  # "new" | "suppressed"
    justification: str = ""


@dataclass
class LintResult:
    """Everything one lint run produced, in deterministic order.

    ``stale_suppressions`` holds one ``path:line: ...`` problem per
    suppressed rule id that is unknown or covered no finding (checked
    only in runs over the whole catalog, i.e. without ``select``).
    """

    root: str
    files_scanned: int
    assessed: List[AssessedFinding]
    stale_suppressions: List[str] = field(default_factory=list)

    @property
    def new(self) -> List[AssessedFinding]:
        return [a for a in self.assessed if a.status == "new"]

    @property
    def suppressed(self) -> List[AssessedFinding]:
        return [a for a in self.assessed if a.status == "suppressed"]

    @property
    def ok(self) -> bool:
        return not self.new and not self.stale_suppressions


@dataclass
class Suppression:
    """One ``# repro: lint-ignore[...]`` comment."""

    rules: Tuple[str, ...]
    justification: str
    line: int
    used: Set[str] = field(default_factory=set)  # rules that covered a finding

    def covers(self, rule: str) -> bool:
        """Whether this comment suppresses ``rule``."""
        return rule in self.rules


@dataclass
class SourceModule:
    """One parsed source file plus its suppression comments.

    Suppressions are read from ``COMMENT`` tokens, so a marker inside a
    string literal or docstring is not one.
    """

    path: str
    relpath: str
    tree: ast.Module
    suppressions: Dict[int, Suppression]
    comment_lines: Set[int]  # lines holding nothing but a comment

    @classmethod
    def load(cls, path: str, relpath: str) -> "SourceModule":
        """Read and parse one file, collecting its suppression comments."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise LintConfigError(f"cannot read {path}: {exc}")
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            raise LintConfigError(f"cannot parse {relpath}: {exc}")
        suppressions: Dict[int, Suppression] = {}
        comment_lines: Set[int] = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type != tokenize.COMMENT:
                continue
            lineno, col = token.start
            if not token.line[:col].strip():
                comment_lines.add(lineno)
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            suppressions[lineno] = Suppression(
                rules=rules,
                justification=match.group(2).strip(),
                line=lineno,
            )
        return cls(
            path=path, relpath=relpath, tree=tree,
            suppressions=suppressions, comment_lines=comment_lines,
        )

    def suppression_for(self, lineno: int, rule: str) -> Optional[Suppression]:
        """The suppression covering ``rule`` at ``lineno``, if any.

        A suppression applies on its own line, or — when written as a
        standalone comment — to the next non-comment line below it
        (stacked standalone suppressions all apply).
        """
        found = self.suppressions.get(lineno)
        if found is not None and found.covers(rule):
            return found
        above = lineno - 1
        while above in self.comment_lines:
            found = self.suppressions.get(above)
            if found is not None and found.covers(rule):
                return found
            above -= 1
        return None


# -- project class graph ------------------------------------------------------


def _base_name(node: ast.expr) -> Optional[str]:
    """The usable name of one base-class expression (``Bar`` of ``x.Bar``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass
class ClassDecl:
    """One class definition: its module, base names and methods."""

    name: str
    module: SourceModule
    node: ast.ClassDef
    base_names: List[str]
    methods: Dict[str, ast.FunctionDef]


class ProjectIndex:
    """All classes in the scanned tree, linked by (heuristic) base names."""

    def __init__(self, modules: Sequence[SourceModule]):
        self.classes: List[ClassDecl] = []
        self.by_name: Dict[str, List[ClassDecl]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    decl = ClassDecl(
                        name=node.name,
                        module=module,
                        node=node,
                        base_names=[
                            name for name in map(_base_name, node.bases)
                            if name is not None
                        ],
                        methods={
                            stmt.name: stmt for stmt in node.body
                            if isinstance(stmt, ast.FunctionDef)
                        },
                    )
                    self.classes.append(decl)
                    self.by_name.setdefault(decl.name, []).append(decl)
        self.classes.sort(key=lambda d: (d.module.relpath, d.node.lineno))

    def ancestors(self, decl: ClassDecl) -> List[ClassDecl]:
        """Project-resolvable ancestors, nearest first (BFS, de-duplicated)."""
        out: List[ClassDecl] = []
        seen: Set[int] = {id(decl)}
        queue: List[ClassDecl] = [decl]
        while queue:
            current = queue.pop(0)
            for base in current.base_names:
                for candidate in self.by_name.get(base, []):
                    if id(candidate) in seen:
                        continue
                    seen.add(id(candidate))
                    out.append(candidate)
                    queue.append(candidate)
        return out

    def is_automaton(self, decl: ClassDecl) -> bool:
        """Whether the class descends from ``Entity`` or ``Process``.

        The roots themselves do not count; a base named ``Entity`` or
        ``Process`` counts even when it is outside the scanned tree.
        """
        reach = set(decl.base_names)
        for ancestor in self.ancestors(decl):
            reach.add(ancestor.name)
            reach.update(ancestor.base_names)
        return decl.name not in ("Entity", "Process") and bool(
            reach & {"Entity", "Process"}
        )


# -- shared AST helpers -------------------------------------------------------


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def scope_name(stack: Sequence[str]) -> str:
    """``Class.method`` from a visitor scope stack (``module`` at top level)."""
    return ".".join(stack) if stack else "module"


# -- driver -------------------------------------------------------------------


def _iter_python_files(path: str) -> Iterable[str]:
    if os.path.isfile(path):
        yield path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__" and not d.startswith(".")
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def load_modules(
    paths: Sequence[str], root: Optional[str] = None
) -> List[SourceModule]:
    """Parse every ``.py`` under ``paths`` in deterministic order."""
    root = os.path.abspath(root or os.getcwd())
    files: List[str] = []
    for path in paths:
        if not os.path.exists(path):
            raise LintConfigError(f"no such file or directory: {path}")
        files.extend(_iter_python_files(path))
    entries = []
    for path in files:
        abspath = os.path.abspath(path)
        relpath = os.path.relpath(abspath, root).replace(os.sep, "/")
        entries.append((relpath, abspath))
    entries.sort()
    modules = []
    seen: Set[str] = set()
    for relpath, abspath in entries:
        if relpath in seen:
            continue
        seen.add(relpath)
        modules.append(SourceModule.load(abspath, relpath))
    return modules


def _apply_suppressions(
    findings: Sequence[Finding], modules: Sequence[SourceModule]
) -> List[AssessedFinding]:
    by_relpath = {m.relpath: m for m in modules}
    assessed: List[AssessedFinding] = []
    for finding in sorted(findings, key=Finding.sort_key):
        module = by_relpath.get(finding.path)
        suppression = None
        if module is not None:
            suppression = module.suppression_for(finding.line, finding.rule)
        if suppression is not None:
            suppression.used.add(finding.rule)
            assessed.append(
                AssessedFinding(
                    finding, "suppressed",
                    justification=suppression.justification,
                )
            )
        else:
            assessed.append(AssessedFinding(finding, "new"))
    return assessed


def _stale_suppressions(modules: Sequence[SourceModule]) -> List[str]:
    """Suppressed rule ids that are unknown or covered no finding."""
    stale: List[str] = []
    for module in modules:
        for line in sorted(module.suppressions):
            suppression = module.suppressions[line]
            for rule in suppression.rules:
                where = f"{module.relpath}:{line}"
                if not is_known_rule(rule):
                    stale.append(f"{where}: suppression names unknown rule {rule!r}")
                elif rule not in suppression.used:
                    stale.append(f"{where}: suppression of {rule} covers no finding")
    return stale


def run_lint(
    paths: Sequence[str],
    root: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Run every pass over ``paths`` and fold in inline suppressions.

    ``select`` restricts the run to the given rule IDs (handy for
    fixture tests); such a run does not check for stale suppressions,
    since the rules it leaves out produce no findings to cover.
    """
    # late imports: the passes import helpers from this module
    from repro.lint import determinism, isolation

    modules = load_modules(paths, root=root)
    index = ProjectIndex(modules)
    findings: List[Finding] = []
    for module in modules:
        findings.extend(determinism.check_module(module))
    findings.extend(isolation.check_project(index))
    if select is not None:
        wanted = set(select)
        for rule in sorted(wanted):
            if not is_known_rule(rule):
                raise LintConfigError(f"unknown rule id {rule!r}")
        findings = [f for f in findings if f.rule in wanted]
    assessed = _apply_suppressions(findings, modules)
    return LintResult(
        root=os.path.abspath(root or os.getcwd()),
        files_scanned=len(modules),
        assessed=assessed,
        stale_suppressions=[] if select is not None else _stale_suppressions(modules),
    )
