"""One validation harness: ``python -m repro validate ARTIFACT ...``.

Every run in this repo leaves an artifact recording whether the paper's
relations and bounds held; this module is the one place they are
checked. A file is dispatched on its **own header** — the top-level
``format`` of a JSON (or ``.toml``) document, or of line 1 of a JSONL
file — to a :class:`Format`: a *shape* written as plain data, plus a
short list of *invariant* functions that run only when the shape is
clean, so no invariant ever has to guard a type.

One structural walker, :func:`check_shape`, interprets every shape. A
spec is one of:

``object``
    anything;
``dict`` / ``list`` / ``str`` / ``int`` / ``float`` / ``bool``
    a value of that JSON type (``float`` means *number*, so it admits
    integers; ``bool`` is never a number);
``{"key": spec, "key?": spec, "*": spec}``
    an object with the required and optional (``?``) keys, every value
    matching ``"*"`` when given; unknown keys are allowed;
``[spec]``
    an array of ``spec``;
``(spec, spec, ...)``
    any one of the alternatives;
anything else
    that literal value.

The walker never raises and never descends below a node of the wrong
type. The seven formats are in :func:`formats`; the metrics/trace and
aggregate/checkpoint entries live beside their producers in
:mod:`repro.obs.schema` and :mod:`repro.campaign.schema`, the rest
here. Exit status: 0 every file conforms, 1 any problem (one per line,
prefixed with the path), 2 usage.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

_TYPE_NAMES = {
    dict: "an object", list: "an array", str: "a string",
    int: "an integer", float: "a number", bool: "a boolean",
}


def _describe(spec: object) -> str:
    if isinstance(spec, tuple):
        return " or ".join(_describe(alternative) for alternative in spec)
    if isinstance(spec, (dict, list)):
        spec = type(spec)
    if isinstance(spec, type):
        return _TYPE_NAMES.get(spec, spec.__name__)
    return json.dumps(spec)


def check_shape(value: object, spec: object, where: str) -> List[str]:
    """Problems with the structure of ``value`` against ``spec``.

    ``where`` names the node in the messages (``metrics.counters.x``).
    See the module docstring for the spec language.
    """
    if spec is object:
        return []
    if isinstance(spec, tuple):
        if any(not check_shape(value, alt, where) for alt in spec):
            return []
    elif isinstance(spec, type):
        wanted = (int, float) if spec is float else spec
        if isinstance(value, wanted) and (
            spec is bool or not isinstance(value, bool)
        ):
            return []
    elif isinstance(spec, list):
        if isinstance(value, list):
            return [
                problem
                for index, item in enumerate(value)
                for problem in check_shape(item, spec[0], f"{where}[{index}]")
            ]
    elif isinstance(spec, dict):
        if isinstance(value, dict):
            problems: List[str] = []
            for key, sub in spec.items():
                name = key.rstrip("?")
                if key == "*":
                    for each, item in value.items():
                        problems += check_shape(item, sub, f"{where}.{each}")
                elif name not in value:
                    if name == key:
                        problems.append(f"{where}: lacks {name!r}")
                elif sub is not object:  # presence was all that was asked
                    problems += check_shape(value[name], sub, f"{where}.{name}")
            return problems
    elif type(value) is type(spec) and value == spec:
        return []
    return [f"{where}: expected {_describe(spec)}, got {repr(value)[:60]}"]


Records = Sequence[Tuple[int, dict]]
"""The body of a JSONL file as ``(line number, record)`` pairs."""


class Format(NamedTuple):
    """One artifact format: header name, shape, invariants.

    ``name`` is the header's ``format`` value; the harness checks it, so
    no shape repeats it, and ``label`` starts every problem message. A
    JSON document has one ``shape``; its invariants are called as
    ``invariant(document)``. A JSONL format additionally has ``records``
    — the shape of each body record, selected by its ``k`` — while
    ``shape`` describes the header on line 1, and its invariants are
    called as ``invariant(header, records)`` (:data:`Records`).
    """

    name: str
    label: str
    shape: object
    invariants: Sequence[Callable[..., List[str]]] = ()
    records: Optional[Dict[str, object]] = None
    torn_tail: bool = False


def _format_problem(fmt: Format, header: object) -> List[str]:
    # Reported beside the shape, not as part of it: a wrong name does not
    # stop the invariants from running on an otherwise well-shaped file.
    if not isinstance(header, dict) or header.get("format") == fmt.name:
        return []
    return [
        f"{fmt.label}: format is {header.get('format')!r}, "
        f"expected {fmt.name!r}"
    ]


def check_document(fmt: Format, document: object) -> List[str]:
    """Problems with a parsed JSON document of format ``fmt``."""
    problems = check_shape(document, fmt.shape, fmt.label)
    if not problems:
        for invariant in fmt.invariants:
            problems += invariant(document)
    return _format_problem(fmt, document) + problems


def check_lines(fmt: Format, lines: Sequence[str]) -> List[str]:
    """Problems with the lines of a JSONL file of format ``fmt``.

    Blank lines are skipped; a non-JSON *final* line is legal when the
    format says a torn tail is (a checkpoint killed mid-write).
    """
    if not lines:
        return [f"{fmt.label}: empty file"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"{fmt.label}: header is not JSON ({exc})"]
    problems = check_shape(header, fmt.shape, f"{fmt.label} header")
    records: List[Tuple[int, dict]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{fmt.label} line {lineno}"
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if not (fmt.torn_tail and lineno == len(lines)):
                problems.append(f"{where}: not JSON ({exc})")
            continue
        kind = record.get("k") if isinstance(record, dict) else None
        if isinstance(kind, str) and kind in fmt.records:
            problems += check_shape(record, fmt.records[kind], where)
            records.append((lineno, record))
        elif isinstance(record, dict) and "format" in record:
            problems.append(
                f"{where}: mixed-version file — a second header appears "
                f"mid-file; each file must carry exactly one header"
            )
        else:
            problems.append(f"{where}: unknown record kind {kind!r}")
    if not problems:
        for invariant in fmt.invariants:
            problems += invariant(header, records)
    return _format_problem(fmt, header) + problems


# -- repro-fault-plan ---------------------------------------------------------
# Lenient, which is what ``repro chaos --plan`` / ``repro load --plan``
# accept; pairing is ``FaultPlan.validate(strict=True)``'s business.


def _plan_loads(document: dict) -> List[str]:
    from repro.chaos.plan import FaultPlan
    from repro.errors import ReproError

    try:
        FaultPlan.from_dict(document).validate()
    except ReproError as exc:
        return [f"plan: {exc}"]
    return []


PLAN = Format(
    "repro-fault-plan", "plan",
    {
        "version?": int,
        "name?": str,
        "events?": [{
            "kind": str, "t": float, "end?": float, "excess?": float,
            "node?": (int, None),
            "edge?": ([int], None),
            "groups?": ([[int]], None),
        }],
    },
    (_plan_loads,),
)


# -- repro-live-chaos-report --------------------------------------------------
# The rule table of ``repro chaos --live --report-out``
# (:meth:`repro.live.report.LiveReport.to_payload` of a run under a plan).


def _run_healthy(report: dict) -> List[str]:
    problems = []
    if not report["linearizable"]:
        problems.append("report: history is not linearizable")
    if report["unattributed"] != 0:
        problems.append(
            f"report: {report['unattributed']} violation(s) unattributed"
        )
    for index, violation in enumerate(report["violations"]):
        if violation["event_index"] is None:
            problems.append(f"report.violations[{index}]: no event_index")
    unknown = sorted(set(report["outcomes"]) - {"ok", "retried", "timeout"})
    if unknown:
        problems.append(f"report: unknown outcomes {unknown}")
    if sum(report["outcomes"].values()) <= 0:
        problems.append("report: no client operations recorded")
    return problems


def _faults_exercised(report: dict) -> List[str]:
    # A chaos smoke that injected nothing proves nothing.
    counts = {
        f"faults.{key}": report["faults"][key]
        for key in ("crashes", "recoveries", "dropped", "retransmits")
    }
    counts["retries"] = report["retries"]
    return [
        f"report: {key} = {count}, so the run never exercised that path"
        for key, count in counts.items() if count < 1
    ]


def _widening_recorded(report: dict) -> List[str]:
    # Simulation 1: d1' = max(d1 - 2*eps_adj, 0), d2' = d2 + 2*eps_adj.
    params, widened = report["params"], report["widened_bounds"]
    eps_adj = report["eps_adjusted"]
    want_d1 = max(params["d1"] - 2.0 * eps_adj, 0.0)
    want_d2 = params["d2"] + 2.0 * eps_adj
    problems = []
    if not abs(widened["d1_prime"] - want_d1) <= 1e-9:
        problems.append(
            f"report: d1' = {widened['d1_prime']} but "
            f"max(d1 - 2*eps_adj, 0) = {want_d1}"
        )
    if not abs(widened["d2_prime"] - want_d2) <= 1e-9:
        problems.append(
            f"report: d2' = {widened['d2_prime']} but "
            f"d2 + 2*eps_adj = {want_d2}"
        )
    if eps_adj + 1e-12 < report["eps_measured"]:
        problems.append("report: eps_adjusted below eps_measured")
    return problems


LIVE_CHAOS = Format(
    "repro-live-chaos-report", "report",
    {
        "version": 1,
        "params": {"d1": float, "d2": float},
        "plan": dict,
        "operations": int,
        "outcomes": {"*": int},
        "retries": int,
        "linearizable": bool,
        "visited": int,
        "eps_measured": float,
        "eps_adjusted": float,
        "widened_bounds": {"d1_prime": float, "d2_prime": float},
        "retry_allowance": float,
        "bound_checks": list,
        "bounds_ok": bool,
        "faults": {
            "crashes": int, "recoveries": int, "dropped": int,
            "retransmits": int, "wire_errors": int, "inputs_lost": int,
        },
        "violations": [{
            "monitor": object, "kind": object, "time": object,
            "detail": object, "event_index": object, "event": object,
        }],
        "unattributed": int,
        "ok": bool,
    },
    (_run_healthy, _faults_exercised, _widening_recorded),
)


# -- repro-bench-result -------------------------------------------------------
# ``benchmarks/results/<ID>.json``
# (:func:`repro.experiments.run_experiment`). That ``exp_id`` matches the
# file name is ``tests/test_experiments.py``'s business: the harness sees
# documents, not paths.


def _rows_fit_columns(result: dict) -> List[str]:
    width = len(result["table"]["columns"])
    return [
        f"result.table.rows[{index}]: {len(row)} cells, "
        f"the table has {width} columns"
        for index, row in enumerate(result["table"]["rows"])
        if len(row) != width
    ]


def _ok_is_the_conjunction(result: dict) -> List[str]:
    # The boolean shapes are the experiment's acceptance conditions.
    failed = sorted(k for k, v in result["shapes"].items() if v is False)
    if result["ok"] == (not failed):
        return []
    return [f"result: ok is {result['ok']} but the false shapes are {failed}"]


RESULT = Format(
    "repro-bench-result", "result",
    {
        "version": int,
        "exp_id": str,
        "config": dict,
        "table": {
            "title": str, "columns": [str], "rows": [list], "notes": [str],
        },
        "shapes": dict,
        "ok": bool,
    },
    (_rows_fit_columns, _ok_is_the_conjunction),
)


# -- dispatch -----------------------------------------------------------------


def formats() -> Dict[str, Format]:
    """The table: header ``format`` value -> :class:`Format`."""
    # Imported here because both schema modules import the walker above.
    from repro.campaign.schema import AGGREGATE, CHECKPOINT
    from repro.obs.schema import METRICS, TRACE

    return {
        fmt.name: fmt
        for fmt in (
            METRICS, TRACE, AGGREGATE, CHECKPOINT, PLAN, LIVE_CHAOS, RESULT,
        )
    }


def _parse_document(path: str, text: str) -> object:
    if path.endswith(".toml"):
        import tomllib  # Python 3.11+

        return tomllib.loads(text)
    return json.loads(text)


def validate_file(
    path: str, fmt: Optional[Format] = None
) -> Tuple[Optional[Format], List[str]]:
    """Check one file against the format its own header declares.

    Returns ``(format, problems)``; ``format`` is ``None`` when the file
    is unreadable or names no known format — which is a problem, never
    an exception. Passing ``fmt`` skips the dispatch and reads the file
    as that format.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return fmt, [f"cannot read: {exc}"]
    if not text.strip():
        return fmt, ["empty file"]
    lines = text.splitlines()
    document = unparsed = None
    try:
        document = _parse_document(path, text)
    except (ValueError, ImportError) as exc:
        unparsed = f"does not parse as one document ({exc})"
    if fmt is None:
        header = document
        if unparsed:
            try:
                header = json.loads(lines[0])  # JSONL: the header is line 1
            except json.JSONDecodeError:
                return None, [unparsed]
        known = formats()
        name = header.get("format") if isinstance(header, dict) else None
        fmt = known.get(name) if isinstance(name, str) else None
        if fmt is None:
            what = "no 'format'" if name is None else f"unknown format {name!r}"
            return None, [
                f"{what} in the header; known: {', '.join(sorted(known))}"
            ]
    if fmt.records is not None:
        return fmt, check_lines(fmt, lines)
    if unparsed:
        return fmt, [unparsed]
    return fmt, check_document(fmt, document)


def add_validate_arguments(parser) -> None:
    """Attach the ``validate`` arguments to a (sub)parser."""
    parser.add_argument(
        "artifacts", nargs="+", metavar="ARTIFACT",
        help="exported files to check; each is dispatched on the "
             "'format' its own header declares",
    )


def run(args) -> int:
    """Execute one ``validate`` invocation; returns the exit status."""
    status = 0
    for path in args.artifacts:
        fmt, problems = validate_file(path)
        for problem in problems:
            print(f"{path}: {problem}")
        if problems:
            status = 1
        else:
            print(f"{path}: ok ({fmt.name})")
    return status
