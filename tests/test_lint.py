"""The static invariant analyzer against its fixture corpus.

Every rule ID in the catalog has a ``bad_<rule>.py`` fixture under
``tests/fixtures/lint/`` that must trigger exactly that rule, plus
clean counterparts (``good.py``, ``good_entities.py``) that must stay
silent.  On top of the per-rule checks this file pins down the
suppression-comment semantics, the baseline add/remove lifecycle, the
version-1 JSON report schema, the CLI exit codes, and — the meta-check
the whole package exists for — that ``src/`` itself lints clean.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.lint import (
    RULES,
    Baseline,
    apply_baseline,
    render_json,
    render_text,
    run_lint,
    rule_family,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "lint")
SRC = os.path.join(REPO_ROOT, "src")

#: rule -> (fixture basename, expected line of the single finding).
EXPECTED = {
    "DET001": ("bad_det001.py", 8),
    "DET002": ("bad_det002.py", 8),
    "DET003": ("bad_det003.py", 6),
    "DET004": ("bad_det004.py", 6),
    "CON001": ("bad_con001.py", 11),
    "CON002": ("bad_con002.py", 11),
    "CON003": ("bad_con003.py", 9),
    "CON004": ("bad_con004.py", 7),
    "ISO001": ("bad_iso001.py", 11),
    "ISO002": ("bad_iso002.py", 11),
    "ISO003": ("bad_iso003.py", 10),
}


def lint_fixture(name, select=None):
    return run_lint(
        [os.path.join(FIXTURES, name)], root=REPO_ROOT, select=select
    )


class TestRuleCatalog:
    def test_every_rule_has_a_fixture(self):
        assert sorted(EXPECTED) == sorted(RULES)

    @pytest.mark.parametrize("rule", sorted(EXPECTED))
    def test_bad_fixture_triggers_exactly_its_rule(self, rule):
        name, line = EXPECTED[rule]
        result = lint_fixture(name)
        findings = [a.finding for a in result.new]
        assert [f.rule for f in findings] == [rule]
        assert findings[0].line == line
        assert findings[0].path == f"tests/fixtures/lint/{name}"
        assert rule_family(rule) in (
            "determinism", "contract", "isolation",
        )

    @pytest.mark.parametrize("name", ["good.py", "good_entities.py"])
    def test_good_fixtures_are_clean(self, name):
        result = lint_fixture(name)
        assert result.assessed == []

    def test_select_filters_rules(self):
        result = run_lint([FIXTURES], root=REPO_ROOT, select=["DET002"])
        rules = {a.finding.rule for a in result.assessed}
        assert rules == {"DET002"}

    def test_unknown_select_rule_rejected(self):
        from repro.lint.core import LintConfigError

        with pytest.raises(LintConfigError):
            run_lint([FIXTURES], root=REPO_ROOT, select=["NOPE999"])


class TestSuppressions:
    def result(self):
        return lint_fixture("suppressed.py")

    def test_same_line_comment_suppresses(self):
        by_line = {a.finding.line: a for a in self.result().assessed}
        assert by_line[8].status == "suppressed"
        assert by_line[8].justification == "test fixture"

    def test_standalone_comment_above_suppresses(self):
        # The suppression sits two comment lines above the call — the
        # scanner walks upward through the comment block.
        by_line = {a.finding.line: a for a in self.result().assessed}
        assert by_line[15].status == "suppressed"

    def test_wrong_rule_does_not_cover(self):
        by_line = {a.finding.line: a for a in self.result().assessed}
        assert by_line[20].status == "new"
        assert by_line[20].finding.rule == "DET002"

    def test_suppressed_findings_do_not_fail_the_run(self):
        result = self.result()
        assert not result.ok  # the wrong-rule finding is still new
        assert len(result.suppressed) == 2


class TestBaseline:
    def test_add_then_apply_covers_all_new(self):
        result = lint_fixture("bad_det001.py")
        assert len(result.new) == 1
        baseline = Baseline.from_result(result, justification="pinned")
        fresh = apply_baseline(lint_fixture("bad_det001.py"), baseline)
        assert fresh.new == []
        assert len(fresh.baselined) == 1
        assert fresh.baselined[0].justification == "pinned"
        assert fresh.stale_baseline == []
        assert fresh.ok

    def test_fixed_finding_makes_entry_stale(self):
        baseline = Baseline.from_result(lint_fixture("bad_det001.py"))
        # "Fix" the finding by linting a clean file against the same
        # baseline: the entry matches nothing and must be reported.
        result = apply_baseline(lint_fixture("good.py"), baseline)
        assert len(result.stale_baseline) == 1
        assert result.stale_baseline[0]["rule"] == "DET001"
        assert not result.ok

    def test_save_load_roundtrip(self, tmp_path):
        baseline = Baseline.from_result(lint_fixture("bad_iso003.py"))
        path = os.path.join(str(tmp_path), "baseline.json")
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries
        with open(path) as handle:
            data = json.load(handle)
        assert data["version"] == 1

    def test_malformed_baseline_rejected(self, tmp_path):
        from repro.lint.core import LintConfigError

        path = os.path.join(str(tmp_path), "bad.json")
        with open(path, "w") as handle:
            handle.write('{"entries": "not-a-mapping"}')
        with pytest.raises(LintConfigError):
            Baseline.load(path)

    def test_fingerprint_ignores_line_number(self):
        result = lint_fixture("bad_det002.py")
        finding = result.new[0].finding
        moved = type(finding)(
            rule=finding.rule,
            path=finding.path,
            line=finding.line + 40,
            col=0,
            scope=finding.scope,
            message=finding.message,
        )
        assert moved.fingerprint == finding.fingerprint


class TestJsonReport:
    def test_schema(self):
        result = run_lint([FIXTURES], root=REPO_ROOT)
        report = json.loads(render_json(result))
        assert report["version"] == 1
        assert report["files_scanned"] == result.files_scanned
        assert report["ok"] is False
        summary = report["summary"]
        assert set(summary) == {
            "baselined", "by_rule", "new", "stale_baseline", "suppressed",
        }
        assert summary["new"] == len(EXPECTED) + 1  # + wrong-rule case
        assert summary["suppressed"] == 2
        for finding in report["findings"]:
            assert set(finding) >= {
                "rule", "family", "path", "line", "col",
                "scope", "message", "fingerprint", "status",
            }
            assert finding["rule"] in RULES
        statuses = {f["status"] for f in report["findings"]}
        assert statuses == {"new", "suppressed"}

    def test_text_report_mentions_each_new_finding(self):
        result = run_lint([FIXTURES], root=REPO_ROOT)
        text = render_text(result)
        for rule, (name, line) in EXPECTED.items():
            assert f"tests/fixtures/lint/{name}:{line}:" in text
            assert rule in text
        # Suppressed findings only appear in verbose mode.
        assert "[suppressed]" not in text
        assert "[suppressed]" in render_text(result, verbose=True)


class TestRepoIsClean:
    def test_src_has_no_new_findings(self):
        result = run_lint([SRC], root=REPO_ROOT)
        messages = [
            f"{a.finding.location()} {a.finding.rule} {a.finding.message}"
            for a in result.new
        ]
        assert messages == []

    def test_every_src_suppression_is_justified(self):
        result = run_lint([SRC], root=REPO_ROOT)
        for assessed in result.suppressed:
            assert assessed.justification.strip(), assessed.finding.location()


class TestCli:
    def run_cli(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )

    def test_repo_scan_exits_zero(self):
        proc = self.run_cli("--baseline", "lint-baseline.json")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_fixture_scan_exits_nonzero_with_json(self):
        proc = self.run_cli("tests/fixtures/lint", "--format", "json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["summary"]["new"] == len(EXPECTED) + 1

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule in RULES:
            assert rule in proc.stdout
