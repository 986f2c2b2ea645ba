"""The rule catalog: stable IDs, one-line summaries, and rationale.

Rule IDs are load-bearing: they appear in suppression comments, so they
are append-only — never renumber or reuse an ID, not even a deleted
one's. The long-form rationale, and the table of seeded mutants that
decided which rules stay, live in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from typing import Dict

#: rule id -> one-line summary (shown by ``--list-rules`` and the docs).
RULES: Dict[str, str] = {
    "DET004": "iteration over an unordered set expression; order depends "
              "on PYTHONHASHSEED — wrap in sorted()",
    "ISO003": "received payload stored into entity state without copy "
              "(aliasing across entities)",
}

_FAMILIES = {
    "DET": "determinism",
    "ISO": "isolation",
}


def rule_family(rule_id: str) -> str:
    """The analysis family (``determinism``/``isolation``)."""
    return _FAMILIES.get(rule_id[:3], "unknown")


def is_known_rule(rule_id: str) -> bool:
    """Whether ``rule_id`` names a rule in the catalog."""
    return rule_id in RULES
