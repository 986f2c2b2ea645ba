"""Shape and invariants of the metrics and trace export formats.

The exports are a contract: CI runs a seeded experiment with
``--metrics-out``/``--trace-out`` and checks both files with
``python -m repro validate``, so the format cannot silently break. Each
format here is a :class:`repro.validate.Format` — its required keys and
types as plain data, interpreted by the one structural walker
(:func:`repro.validate.check_shape`), plus the invariants that need a
clean shape to be stated at all.

Both formats are versioned and both checks are version-aware: metrics
version 2 adds the ``sketches`` section, trace version 2 adds the
``span``/``meta`` record kinds. A file must be internally consistent
with the version its header declares — a version-1 trace carrying
``span`` records, or a second header mid-file (two traces
concatenated), is *mixed-version* and rejected with an error saying so.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.obs.metrics import FORMAT
from repro.obs.sketch import validate_sketch_dict
from repro.obs.trace import (
    KINDS_BY_VERSION,
    SUPPORTED_TRACE_VERSIONS,
    TRACE_FORMAT,
)
from repro.validate import (
    Format,
    Records,
    check_document,
    check_lines,
    validate_file,
)

SUPPORTED_METRICS_VERSIONS = (1, 2)


# -- repro-metrics ------------------------------------------------------------


def _sketches_match_version(snapshot: dict) -> List[str]:
    if snapshot["version"] >= 2:
        if "sketches" not in snapshot:
            return ["metrics: lacks 'sketches'"]
    elif "sketches" in snapshot:
        return [
            "metrics: mixed-version snapshot: version-1 declares no "
            "'sketches' section but one is present (sketches were "
            "introduced in version 2)"
        ]
    return []


def _histograms_consistent(snapshot: dict) -> List[str]:
    problems = []
    for name, hist in snapshot["histograms"].items():
        bounds, counts = hist["bounds"], hist["counts"]
        if bounds != sorted(bounds):
            problems.append(f"metrics: histogram {name!r} bounds not ascending")
        if any(count < 0 for count in counts):
            problems.append(f"metrics: histogram {name!r} has a negative count")
        if len(counts) != len(bounds) + 1:
            problems.append(
                f"metrics: histogram {name!r} has {len(counts)} counts "
                f"for {len(bounds)} bounds (want bounds+1)"
            )
        if sum(counts) != hist["count"]:
            problems.append(
                f"metrics: histogram {name!r} bucket counts do not sum to count"
            )
    return problems


def _sketches_valid(snapshot: dict) -> List[str]:
    return [
        problem
        for name, sketch in snapshot.get("sketches", {}).items()
        for problem in validate_sketch_dict(name, sketch)
    ]


METRICS = Format(
    FORMAT, "metrics",
    {
        "version": SUPPORTED_METRICS_VERSIONS,
        "counters": {"*": int},
        "gauges": {"*": float},
        "histograms": {"*": {
            "bounds": [float], "counts": [int], "count": int,
            "sum": float, "min": float, "max": float,
        }},
        "sketches?": dict,
    },
    (_sketches_match_version, _histograms_consistent, _sketches_valid),
)


# -- repro-obs-trace ----------------------------------------------------------


def _kinds_match_version(header: dict, records: Records) -> List[str]:
    version = header["version"]
    return [
        f"trace line {lineno}: mixed-version trace — version-{version} "
        f"file carries a {record['k']!r} record, which a later format "
        f"version introduced"
        for lineno, record in records
        if record["k"] not in KINDS_BY_VERSION[version]
    ]


TRACE = Format(
    TRACE_FORMAT, "trace",
    {"version": SUPPORTED_TRACE_VERSIONS},
    (_kinds_match_version,),
    records={
        "run_start": {"horizon": object},
        "action": {"now": object, "owner": object, "a": object, "vis": object},
        "inject": {"now": object, "a": object},
        "advance": {"from": object, "to": object},
        "timelock": {"now": object},
        "run_end": {"now": object, "steps": object},
        "span": {"sid": object, "span": object, "ph": object, "now": object},
        "meta": {"m": object},
    },
)


# -- the public validators ----------------------------------------------------


def validate_metrics(payload: object) -> List[str]:
    """Problems with a metrics snapshot dict; empty list means valid.

    Version-aware: version-1 snapshots have no ``sketches`` section
    (one present is a mixed-version error), version-2 snapshots must
    carry it.
    """
    return check_document(METRICS, payload)


def validate_trace_lines(lines: Sequence[str]) -> List[str]:
    """Problems with the lines of a trace JSONL file; empty means valid.

    Version-aware: records are checked against the kind set of the
    version the header declares, so a version-1 file carrying ``span``
    or ``meta`` records — or any file with a second header mid-stream —
    is reported as mixed-version.
    """
    return check_lines(TRACE, lines)


def validate_metrics_file(path: str) -> List[str]:
    """Validate a ``--metrics-out`` file; returns the problem list."""
    return validate_file(path, METRICS)[1]


def validate_trace_file(path: str) -> List[str]:
    """Validate a ``--trace-out`` file; returns the problem list."""
    return validate_file(path, TRACE)[1]
