"""The text report of a lint run.

A deterministic function of the :class:`LintResult` (already sorted by
the driver): ``tests/test_determinism.py`` asserts two runs over
``src/`` render byte-identical reports.
"""

from __future__ import annotations

from repro.lint.core import LintResult
from repro.lint.rules import RULES, rule_family


def render_text(result: LintResult, verbose: bool = False) -> str:
    """Compiler-style ``path:line:col rule message`` lines plus a summary."""
    lines = []
    for assessed in result.assessed:
        if assessed.status != "new" and not verbose:
            continue
        finding = assessed.finding
        tag = "" if assessed.status == "new" else f" [{assessed.status}]"
        lines.append(
            f"{finding.location()}: {finding.rule}{tag} {finding.message}"
        )
    lines.extend(result.stale_suppressions)
    lines.append(
        f"{result.files_scanned} files scanned: "
        f"{len(result.new)} new, {len(result.suppressed)} suppressed"
        + (f", {len(result.stale_suppressions)} stale suppressions"
           if result.stale_suppressions else "")
    )
    return "\n".join(lines) + "\n"


def render_rules() -> str:
    """The ``--list-rules`` catalog."""
    lines = []
    for rule_id in sorted(RULES):
        lines.append(f"{rule_id}  [{rule_family(rule_id)}] {RULES[rule_id]}")
    return "\n".join(lines) + "\n"
