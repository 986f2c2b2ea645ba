"""``python -m repro validate``: one harness, dispatched on the header.

Driven in-process through ``repro.cli.main``. Producers' artifacts must
pass (the sweep's and the live-chaos run's are checked where those runs
already happen: ``tests/test_campaign.py``, ``tests/test_live_chaos.py``);
a malformed corpus — at least one input per invariant of every format —
must exit 1 with a problem line naming the file, never a traceback.
"""

import json
import os

import pytest

from repro.campaign.schema import validate_checkpoint_lines
from repro.chaos.runner import demo_plan
from repro.cli import main
from repro.obs.schema import validate_metrics

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def validate(capsys, *argv):
    """``(exit status, stdout lines)`` of one in-process invocation."""
    status = main(["validate", *[str(arg) for arg in argv]])
    return status, capsys.readouterr().out.splitlines()


# -- valid bases the malformed corpus is mutated from -------------------------


def metrics(**sections):
    snapshot = {
        "format": "repro-metrics", "version": 2, "counters": {"ops": 3},
        "gauges": {"skew": 0.5}, "histograms": {}, "sketches": {},
    }
    snapshot.update(sections)
    return snapshot


def histogram(**fields):
    hist = {"bounds": [0.1, 0.5], "counts": [1, 2, 0], "count": 3,
            "sum": 0.9, "min": 0.05, "max": 0.4}
    hist.update(fields)
    return hist


def sketch(**fields):
    payload = {"alpha": 0.01, "zero": 0, "buckets": [[3, 2]], "count": 2,
               "sum": 1.0, "min": 0.4, "max": 0.6}
    payload.update(fields)
    return payload


def chaos_report(mutate=None):
    report = {
        "format": "repro-live-chaos-report", "version": 1,
        "params": {"d1": 0.0, "d2": 0.5, "eps": 0.01, "n": 3},
        "plan": {"format": "repro-fault-plan", "version": 1, "events": []},
        "operations": 18,
        "outcomes": {"ok": 17, "retried": 1, "timeout": 0},
        "retries": 3, "linearizable": True, "visited": 40,
        "eps_measured": 0.01, "eps_adjusted": 0.01,
        "widened_bounds": {"d1_prime": 0.0, "d2_prime": 0.52},
        "retry_allowance": 7.85, "bound_checks": [], "bounds_ok": True,
        "faults": {"crashes": 1, "recoveries": 1, "dropped": 6,
                   "retransmits": 6, "wire_errors": 0, "inputs_lost": 0},
        "violations": [{
            "monitor": "wire", "kind": "late", "time": 0.3, "node": 1,
            "edge": None, "detail": "", "event_index": 2, "event": "heal",
        }],
        "unattributed": 0, "ok": True,
    }
    if mutate is not None:
        mutate(report)
    return report


def result(**fields):
    document = {
        "format": "repro-bench-result", "version": 1, "exp_id": "X",
        "config": {},
        "table": {"title": "X", "columns": ["a", "b"], "rows": [[1, 2]],
                  "notes": []},
        "shapes": {"holds": True, "ratios": [1.5]}, "ok": True,
    }
    document.update(fields)
    return document


def jsonl(*records):
    return "\n".join(
        r if isinstance(r, str) else json.dumps(r) for r in records
    ) + "\n"


TRACE_V1 = {"format": "repro-obs-trace", "version": 1}
TRACE_V2 = {"format": "repro-obs-trace", "version": 2}
RUN_START = {"k": "run_start", "horizon": 10.0}
AGGREGATE = {"k": "header", "format": "repro-campaign-aggregate",
             "version": 1, "campaign": "x", "points": 0}
SUMMARY = {"k": "summary", "points": 0, "completed": 0, "failed": 0,
           "violations": 0}
CHECKPOINT = {"k": "header", "format": "repro-campaign-checkpoint",
              "version": 1, "campaign": "x", "points": 1}
POINT = {"k": "point", "key": "a", "result": {}, "wall": 0.1, "attempts": 1}


def plan(*events):
    return {"format": "repro-fault-plan", "version": 1, "name": "p",
            "events": list(events)}


# (id, a substring of the problem the input must draw, the input).
# The first four were a traceback before the walker; the next two were
# the unguarded reads of the old live-chaos script.
UNGUARDED = [
    ("counters-is-a-list", "metrics.counters: expected an object",
     metrics(counters=[1])),
    ("bounds-not-numbers", "bounds[0]: expected a number",
     metrics(histograms={"h": histogram(bounds=["a", 1])})),
    ("bounds-not-a-list", "bounds: expected an array",
     metrics(histograms={"h": histogram(bounds=3)})),
    ("checkpoint-body-is-a-list", "line 2: unknown record kind",
     jsonl(CHECKPOINT, [1])),
    ("report-params-lack-d1-d2", "report.params: lacks 'd2'",
     chaos_report(lambda r: r.update(params={"eps": 0.01}))),
    ("report-outcomes-not-integers", "outcomes.ok: expected an integer",
     chaos_report(lambda r: r.update(outcomes={"ok": "many"}))),
]

MALFORMED = UNGUARDED + [
    # the harness itself
    ("truncated-json", "does not parse", json.dumps(metrics())[:-20]),
    ("empty-file", "empty file", ""),
    ("no-format", "no 'format'", {"version": 1}),
    ("unknown-format", "unknown format 'repro-nonsense'",
     {"format": "repro-nonsense", "version": 1}),
    ("retired-bench-engine-format", "unknown format 'repro-bench-engine'",
     {"format": "repro-bench-engine", "version": 1, "results": []}),
    ("top-level-is-a-list", "no 'format'", [1, 2]),
    # repro-metrics
    ("v1-snapshot-with-sketches", "mixed-version", metrics(version=1)),
    ("v2-snapshot-without-sketches", "lacks 'sketches'",
     {k: v for k, v in metrics().items() if k != "sketches"}),
    ("bounds-not-ascending", "not ascending",
     metrics(histograms={"h": histogram(bounds=[0.5, 0.1])})),
    ("counts-not-bounds-plus-one", "want bounds+1",
     metrics(histograms={"h": histogram(counts=[1, 2])})),
    ("counts-do-not-sum", "do not sum to count",
     metrics(histograms={"h": histogram(count=4)})),
    ("sketch-alpha-out-of-range", "alpha invalid",
     metrics(sketches={"s": sketch(alpha=2.0)})),
    # repro-obs-trace
    ("v1-trace-with-span", "version-1 file carries a 'span' record",
     jsonl(TRACE_V1, RUN_START, {
         "k": "span", "sid": "m0", "span": "msg", "ph": "enq", "now": 0.0})),
    ("second-header-mid-file", "mixed-version",
     jsonl(TRACE_V2, RUN_START, TRACE_V2)),
    ("trace-record-lacks-a-key", "line 2: lacks 'steps'",
     jsonl(TRACE_V2, {"k": "run_end", "now": 1.0})),
    ("trace-unknown-kind", "unknown record kind 'bogus'",
     jsonl(TRACE_V2, {"k": "bogus"})),
    # repro-campaign-aggregate / -checkpoint
    ("aggregate-without-summary", "summary", jsonl(AGGREGATE)),
    ("aggregate-completed-miscounts", "claims 1 completed",
     jsonl(AGGREGATE, dict(SUMMARY, completed=1))),
    ("aggregate-merged-metrics-invalid", "merged snapshot invalid",
     jsonl(AGGREGATE,
           {"k": "metrics", "merged": metrics(counters={"c": 1.5})},
           SUMMARY)),
    ("checkpoint-torn-mid-file", "line 2: not JSON",
     jsonl(CHECKPOINT, '{"k": "poi', POINT)),
    # repro-fault-plan
    ("plan-unknown-kind", "unknown fault kind",
     plan({"kind": "meteor", "t": 1.0})),
    ("plan-empty-clock-fault-window", "empty window",
     plan({"kind": "clock_fault", "t": 2.0, "end": 1.0, "node": 0,
           "excess": 0.5})),
    ("plan-event-time-is-a-string", "events[0].t: expected a number",
     plan({"kind": "heal", "t": "soon"})),
    # repro-live-chaos-report
    ("report-not-linearizable", "not linearizable",
     chaos_report(lambda r: r.update(linearizable=False))),
    ("report-unattributed", "1 violation(s) unattributed",
     chaos_report(lambda r: r.update(unattributed=1))),
    ("report-violation-without-event", "no event_index",
     chaos_report(lambda r: r["violations"][0].update(event_index=None))),
    ("report-unknown-outcome", "unknown outcomes ['lost']",
     chaos_report(lambda r: r["outcomes"].update(lost=1))),
    ("report-no-operations", "no client operations",
     chaos_report(lambda r: r.update(outcomes={}))),
    ("report-no-crash", "faults.crashes = 0",
     chaos_report(lambda r: r["faults"].update(crashes=0))),
    ("report-no-recovery", "faults.recoveries = 0",
     chaos_report(lambda r: r["faults"].update(recoveries=0))),
    ("report-nothing-dropped", "faults.dropped = 0",
     chaos_report(lambda r: r["faults"].update(dropped=0))),
    ("report-no-retransmit", "faults.retransmits = 0",
     chaos_report(lambda r: r["faults"].update(retransmits=0))),
    ("report-no-client-retry", "report: retries = 0",
     chaos_report(lambda r: r.update(retries=0))),
    ("report-d1-prime-wrong", "d1' = 0.1 but",
     chaos_report(lambda r: r["widened_bounds"].update(d1_prime=0.1))),
    ("report-d2-prime-off-by-1e-6", "d2' = 0.520001 but",
     chaos_report(
         lambda r: r["widened_bounds"].update(d2_prime=0.52 + 1e-6))),
    ("report-eps-adjusted-below-measured", "eps_adjusted below",
     chaos_report(lambda r: r.update(eps_measured=0.02))),
    # repro-bench-result
    ("result-row-one-cell-short", "rows[1]: 1 cells, the table has 2 columns",
     result(table={"title": "X", "columns": ["a", "b"],
                   "rows": [[1, 2], [3]], "notes": []})),
    ("result-ok-beside-a-false-shape",
     "ok is True but the false shapes are ['holds']",
     result(shapes={"holds": False})),
]


def corpus(cases):
    return pytest.mark.parametrize(
        "needle,content", [case[1:] for case in cases],
        ids=[case[0] for case in cases],
    )


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(
        content if isinstance(content, str) else json.dumps(content)
    )
    return path


class TestProducersValidate:
    def test_register_exports(self, tmp_path, capsys):
        m, t = tmp_path / "metrics.json", tmp_path / "trace.jsonl"
        assert main(["register", "--ops", "10", "--horizon", "60",
                     "--metrics-out", str(m), "--trace-out", str(t)]) == 0
        capsys.readouterr()
        status, lines = validate(capsys, m, t)
        assert status == 0
        assert lines == [f"{m}: ok (repro-metrics)",
                         f"{t}: ok (repro-obs-trace)"]
        # Dispatch is by header, not by name: the extension says the
        # opposite of the truth for both of these.
        as_json, as_jsonl = tmp_path / "t.json", tmp_path / "m.jsonl"
        as_json.write_bytes(t.read_bytes())
        as_jsonl.write_bytes(m.read_bytes())
        status, lines = validate(capsys, as_json, as_jsonl)
        assert status == 0
        assert lines == [f"{as_json}: ok (repro-obs-trace)",
                         f"{as_jsonl}: ok (repro-metrics)"]

    def test_fault_plans(self, tmp_path, capsys):
        saved = tmp_path / "demo-plan.json"
        demo_plan().save(str(saved))
        committed = os.path.join(REPO_ROOT, "examples", "live_chaos_plan.json")
        assert validate(capsys, saved, committed)[0] == 0

    def test_toml_plan(self, tmp_path, capsys):
        pytest.importorskip("tomllib")
        path = write(tmp_path, "plan.toml", (
            'format = "repro-fault-plan"\nname = "t"\n'
            '[[events]]\nkind = "crash"\nt = 1\nnode = 0\n'
            '[[events]]\nkind = "drop_burst"\nt = 2.0\nend = 2.5\n'
            'edge = [0, 1]\n'
        ))
        assert validate(capsys, path)[0] == 0

    def test_torn_final_checkpoint_line_is_legal(self, tmp_path, capsys):
        path = write(tmp_path, "checkpoint.jsonl",
                     jsonl(CHECKPOINT, POINT).rstrip("\n") + '\n{"k": "poi')
        assert validate(capsys, path)[0] == 0

    def test_the_bases_of_the_malformed_corpus_are_valid(self, tmp_path, capsys):
        paths = [
            write(tmp_path, "metrics.json", metrics(
                histograms={"h": histogram()}, sketches={"s": sketch()})),
            write(tmp_path, "report.json", chaos_report()),
            write(tmp_path, "aggregate.jsonl", jsonl(AGGREGATE, SUMMARY)),
            write(tmp_path, "plan.json", plan({"kind": "heal", "t": 1.0})),
            write(tmp_path, "result.json", result()),
        ]
        status, lines = validate(capsys, *paths)
        assert status == 0, lines


class TestMalformedCorpus:
    @corpus(MALFORMED)
    def test_exits_one_naming_the_file(self, needle, content, tmp_path, capsys):
        path = write(tmp_path, "artifact", content)
        status, lines = validate(capsys, path)
        assert status == 1
        assert all(line.startswith(f"{path}: ") for line in lines)
        assert any(needle in line for line in lines), lines

    def test_one_bad_file_fails_the_batch_but_every_file_is_reported(
        self, tmp_path, capsys
    ):
        good = write(tmp_path, "good.json", metrics())
        bad = write(tmp_path, "bad.json", metrics(counters=[1]))
        status, lines = validate(capsys, bad, tmp_path / "missing.json", good)
        assert status == 1
        assert lines[0].startswith(f"{bad}: metrics.counters: expected an object")
        assert lines[1].startswith(f"{tmp_path / 'missing.json'}: cannot read")
        assert lines[2] == f"{good}: ok (repro-metrics)"

    def test_unknown_format_lists_the_seven(self, tmp_path, capsys):
        path = write(tmp_path, "x.json", {"format": "repro-nonsense"})
        _, lines = validate(capsys, path)
        for name in ("repro-metrics", "repro-obs-trace",
                     "repro-campaign-aggregate", "repro-campaign-checkpoint",
                     "repro-fault-plan", "repro-live-chaos-report",
                     "repro-bench-result"):
            assert name in lines[0]

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["validate"])
        assert raised.value.code == 2


class TestValidatorsReturnProblems:
    """Validators return problems; they do not raise."""

    @corpus(UNGUARDED[:3])
    def test_malformed_metrics(self, needle, content, tmp_path, capsys):
        assert any(needle in p for p in validate_metrics(content))
        # ... which is what lets `repro report` refuse the file cleanly.
        path = write(tmp_path, "bad.json", content)
        assert main(["report", str(path)]) == 2
        assert "invalid metrics file: " in capsys.readouterr().err

    @corpus(UNGUARDED[3:4])
    def test_checkpoint_body_line_that_is_not_an_object(self, needle, content):
        problems = validate_checkpoint_lines(content.splitlines())
        assert any(needle in p for p in problems)
