"""The rule catalog: stable IDs, one-line summaries, and rationale.

Rule IDs are load-bearing: they appear in suppression comments, in the
committed baseline, and in the JSON report consumed by CI, so they are
append-only — never renumber or reuse an ID. The long-form rationale
(tied to the paper's determinism/conformance story) lives in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from typing import Dict

#: rule id -> one-line summary (shown by ``--list-rules`` and the docs).
RULES: Dict[str, str] = {
    # -- determinism --------------------------------------------------------
    "DET001": "call to the process-global RNG (random.random() et al.); "
              "use a seeded random.Random instance",
    "DET002": "wall-clock read (time.time/monotonic/perf_counter, "
              "datetime.now, os.urandom) in simulation code",
    "DET003": "sort keyed on id()/hash(): interpreter-dependent ordering",
    "DET004": "iteration over an unordered set expression; order depends "
              "on PYTHONHASHSEED — wrap in sorted()",
    # -- scheduling contracts ----------------------------------------------
    "CON001": "pure_enabled=True but enabled() mutates state or draws "
              "from an RNG",
    "CON002": "static_deadline=True but deadline() reads the current-time "
              "parameter",
    "CON003": "static_deadline=True but advance() writes state that "
              "deadline() reads",
    "CON004": "wrapper forwards some scheduling-contract flags from its "
              "wrapped automaton but drops others",
    # -- entity isolation ---------------------------------------------------
    "ISO001": "entity method writes a module-level global shared by all "
              "instances",
    "ISO002": "entity method mutates a class attribute shared by all "
              "instances",
    "ISO003": "received payload stored into entity state without copy "
              "(aliasing across entities)",
}

_FAMILIES = {
    "DET": "determinism",
    "CON": "contract",
    "ISO": "isolation",
}


def rule_family(rule_id: str) -> str:
    """The analysis family (``determinism``/``contract``/``isolation``)."""
    return _FAMILIES.get(rule_id[:3], "unknown")


def is_known_rule(rule_id: str) -> bool:
    """Whether ``rule_id`` names a rule in the catalog."""
    return rule_id in RULES
