"""Output checks of the suite: what makes a repetition count as failed.

Three kinds of evidence, one per thing the suite does:

- **simulate** -- the SHA-256 of the recorder's event stream. It must be
  the same for every repetition of one run, the same with and without
  tracing, and equal to ``golden.json`` for the default seed (``run.py``
  makes that last comparison, on the ``facts`` a pass reports).
- **serve** -- every operation answered ``ok``, every read returned the
  initial value or a value whose write was invoked before the read
  responded, and no peer frame took longer than ``d2`` on the wire. The
  short warm-up history additionally gets a full linearizability check.
- **check** -- the checker's verdicts and visited-node counts, which are
  a pure function of the seeded histories.

:class:`Outcome` counts what was attempted and what failed; the ratio of
the two is the suite's ``fail_ratio``.
"""

import hashlib

from repro.live.load import build_operations
from repro.registers.system import INITIAL_VALUE
from repro.traces.linearizability import (
    SearchBudgetExceeded,
    analyze_linearizability,
)


class Outcome:
    """Attempted/failed counts of one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.facts = {}

    def check(self, ok, what):
        """Count one attempt, failed unless ``ok``."""
        self.fail(0 if ok else 1, 1, what)

    def fail(self, failures, attempts, what):
        """Count ``attempts`` of which ``failures`` failed."""
        self.attempted += attempts
        if failures:
            self.failed += failures
            self.notes.append(f"FAILED: {what}")


def trace_hash(recorder):
    """SHA-256 over every recorded event, in order."""
    digest = hashlib.sha256()
    for event in recorder.events:
        digest.update(
            f"{event.index}|{event.action!r}|{event.now!r}|{event.owner}|"
            f"{event.clock!r}|{event.visible}\n".encode()
        )
    return digest.hexdigest()


def invalid_reads(records):
    """Reads whose value no write invoked before their response wrote."""
    invoked = {INITIAL_VALUE: float("-inf")}
    for record in records:
        if record.kind == "W":
            invoked[record.value] = record.inv_time
    return [
        record for record in records
        if record.kind == "R"
        and record.completed
        and not invoked.get(record.value, float("inf")) <= record.res_time
    ]


def check_live_repetition(outcome, label, records, stats, d2):
    """Count a live repetition's operations into ``outcome``."""
    not_ok = [r for r in records if r.outcome != "ok"]
    outcome.fail(
        len(not_ok), len(records),
        f"{label}: {len(not_ok)} operations not answered ok",
    )
    bad = invalid_reads(records)
    outcome.fail(
        len(bad), sum(1 for r in records if r.kind == "R"),
        f"{label}: {len(bad)} reads returned a value nobody had written",
    )
    wire_max = max(node["wire_max"] for node in stats)
    outcome.check(
        wire_max <= d2,
        f"{label}: wire_max {wire_max * 1e3:.1f} ms exceeds d2 "
        f"{d2 * 1e3:.1f} ms, so the [d1, d2] premise did not hold",
    )


def check_live_history(outcome, label, records):
    """Full linearizability check of a (short) live history."""
    try:
        ok = analyze_linearizability(
            build_operations(records), initial_value=INITIAL_VALUE
        ).ok
        reason = "history is not linearizable"
    except (SearchBudgetExceeded, RecursionError, MemoryError) as exc:
        ok, reason = False, f"checker gave no verdict ({type(exc).__name__})"
    outcome.check(ok, f"{label}: {reason}")
