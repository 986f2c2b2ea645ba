"""Shape and invariants of the campaign checkpoint and aggregate files.

Same contract style as :mod:`repro.obs.schema`: each JSONL format is a
:class:`repro.validate.Format` — header and per-kind record shapes as
plain data for the one structural walker, plus invariants — and CI runs
a tiny sweep end-to-end, then ``python -m repro validate`` on both
files, so the formats cannot silently break.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.campaign.aggregate import AGGREGATE_FORMAT, AGGREGATE_VERSION
from repro.campaign.checkpoint import CHECKPOINT_FORMAT, CHECKPOINT_VERSION
from repro.obs.schema import validate_metrics
from repro.validate import Format, Records, check_lines, validate_file

_PERCENTILES = {"p50": object, "p90": object, "p99": object, "max": object}


def _summary_closes_the_file(header: dict, records: Records) -> List[str]:
    summaries = [record for _, record in records if record["k"] == "summary"]
    if not summaries:
        return ["aggregate: missing the final summary record"]
    points = sum(1 for _, record in records if record["k"] == "point")
    return [
        f"aggregate: summary claims {summary['completed']} completed "
        f"points, file has {points} point records"
        for summary in summaries if summary["completed"] != points
    ]


def _merged_metrics_valid(header: dict, records: Records) -> List[str]:
    return [
        f"aggregate line {lineno}: merged snapshot invalid: {problem}"
        for lineno, record in records if record["k"] == "metrics"
        for problem in validate_metrics(record["merged"])
    ]


AGGREGATE = Format(
    AGGREGATE_FORMAT, "aggregate",
    {
        "k": "header", "version": AGGREGATE_VERSION,
        "campaign": object, "points": object,
    },
    (_summary_closes_the_file, _merged_metrics_valid),
    records={
        "point": {"index": object, "result": {
            "key": object, "config": object, "operations": object,
            "reads": object, "writes": object, "read_latencies": object,
            "write_latencies": object, "linearizable": object,
            "violations": object, "engine": object,
        }},
        "group": {
            "config": object, "seeds": object, "violations": object,
            "read_latency": _PERCENTILES, "write_latency": _PERCENTILES,
        },
        "curve": {
            "eps": object, "violations": object, "skew_max": object,
            "read_latency": _PERCENTILES, "write_latency": _PERCENTILES,
        },
        "metrics": {"merged": object},
        "failure": {"index": object, "key": object, "error": object},
        "summary": {
            "points": object, "completed": int, "failed": object,
            "violations": object,
        },
    },
)

CHECKPOINT = Format(
    CHECKPOINT_FORMAT, "checkpoint",
    {"version": CHECKPOINT_VERSION},
    records={"point": {
        "key": object, "result": object, "wall": object, "attempts": object,
    }},
    torn_tail=True,
)


def validate_aggregate_lines(lines: Sequence[str]) -> List[str]:
    """Problems with an aggregate JSONL file's lines; empty means valid."""
    return check_lines(AGGREGATE, lines)


def validate_checkpoint_lines(lines: Sequence[str]) -> List[str]:
    """Problems with a checkpoint JSONL file's lines; empty means valid.

    A torn (non-JSON) final line is allowed — it is the expected residue
    of a campaign killed mid-write, and loading tolerates it.
    """
    return check_lines(CHECKPOINT, lines)


def validate_aggregate_file(path: str) -> List[str]:
    """Validate an aggregate JSONL file; returns the problem list."""
    return validate_file(path, AGGREGATE)[1]


def validate_checkpoint_file(path: str) -> List[str]:
    """Validate a checkpoint JSONL file; returns the problem list."""
    return validate_file(path, CHECKPOINT)[1]
