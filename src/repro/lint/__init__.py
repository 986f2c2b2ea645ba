"""``repro.lint`` — static invariant analysis for the simulator codebase.

The repo checks its determinism and scheduling-contract invariants by
running code: reference and incremental engines must produce identical
traces, same-process and cross-hash-seed double runs must agree, and the
committed experiment tables must regenerate byte for byte. This package
keeps the two rules whose bug classes those runs cannot see:

- ``DET004``: iterating a set into an ordered result. The order depends
  on ``PYTHONHASHSEED``, so a run that never meets a second hash seed
  (a campaign aggregate, say) passes every double run.
- ``ISO003``: a received payload stored into entity state without a
  copy. Sender and receiver then alias one object, which no test sees
  until some sender uses a mutable payload.

Findings carry stable rule IDs and ``file:line`` positions and can be
suppressed inline with a ``repro: lint-ignore[<rule ids>]`` comment and
its justification (same line or the standalone comment line above); a
suppression that names an unknown rule or covers no finding fails the
run. See ``docs/static-analysis.md`` for the rule catalog and for the
measurement that decided which rules the tests already replace.
"""

from repro.lint.core import (
    AssessedFinding,
    Finding,
    LintResult,
    ProjectIndex,
    SourceModule,
    load_modules,
    run_lint,
)
from repro.lint.report import render_text
from repro.lint.rules import RULES, rule_family

__all__ = [
    "AssessedFinding",
    "Finding",
    "LintResult",
    "ProjectIndex",
    "RULES",
    "SourceModule",
    "load_modules",
    "render_text",
    "rule_family",
    "run_lint",
]
