"""``repro.lint`` — static invariant analysis for the simulator codebase.

Every determinism guarantee this reproduction ships — byte-identical
traces across engine cores, worker counts, resumes, and chaos re-runs —
rests on invariants that are documented but, until this package,
unchecked:

- **Determinism discipline** (``DET*``): no process-global RNG, no
  wall-clock reads in simulation code, no interpreter-dependent
  orderings (``id()``/``hash()`` sort keys, bare set iteration).
- **Scheduling contracts** (``CON*``): the ``pure_enabled`` /
  ``static_deadline`` / ``wakes_at_deadline`` promises declared by
  entities (:mod:`repro.components.base`) must match what their method
  bodies actually do — a violated promise silently desynchronizes the
  incremental engine from the full-scan reference.
- **Entity isolation** (``ISO*``): composed automata interact through
  shared actions only, so no state may be reachable from two entity
  instances (or survive from one run to the next in the same process);
  the isolation pass builds per-class read/write effect summaries and
  reports shared globals, mutated class attributes, and payload
  aliasing (the PR 5 lossy-channel bug class).

Findings carry stable rule IDs and ``file:line`` positions, can be
suppressed inline with ``# repro: lint-ignore[RULE] -- justification``
(same line or the standalone comment line above), and can be
grandfathered through a committed baseline file. See
``docs/static-analysis.md`` for the rule catalog and workflow.
"""

from repro.lint.baseline import Baseline, apply_baseline
from repro.lint.core import (
    AssessedFinding,
    Finding,
    LintResult,
    ProjectIndex,
    SourceModule,
    load_modules,
    run_lint,
)
from repro.lint.report import render_json, render_text
from repro.lint.rules import RULES, rule_family

__all__ = [
    "AssessedFinding",
    "Baseline",
    "Finding",
    "LintResult",
    "ProjectIndex",
    "RULES",
    "SourceModule",
    "apply_baseline",
    "load_modules",
    "render_json",
    "render_text",
    "rule_family",
    "run_lint",
]
