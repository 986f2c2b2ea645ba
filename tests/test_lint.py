"""The static invariant analyzer against its fixture corpus.

Every rule ID in the catalog has a ``bad_<rule>.py`` fixture under
``tests/fixtures/lint/`` that must trigger exactly that rule, plus
clean counterparts (``good.py``, ``good_entities.py``) that must stay
silent.  On top of the per-rule checks this file pins down the
suppression-comment semantics (stale suppressions included), the text
report, the CLI exit codes, and — the meta-check the whole package
exists for — that ``src/`` itself lints clean.
"""

import os
import subprocess
import sys

import pytest

from repro.lint import RULES, render_text, run_lint, rule_family

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "lint")
SRC = os.path.join(REPO_ROOT, "src")

#: rule -> (fixture basename, expected line of the single finding).
EXPECTED = {
    "DET004": ("bad_det004.py", 12),
    "ISO003": ("bad_iso003.py", 20),
}

#: New findings in ``suppressed.py``: the wrong-rule and in-string cases.
SUPPRESSED_NEW = 2


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
        assert rule_family(rule) in ("determinism", "isolation")

    @pytest.mark.parametrize("name", ["good.py", "good_entities.py"])
    def test_good_fixtures_are_clean(self, name):
        result = lint_fixture(name)
        assert result.assessed == []

    def test_select_filters_rules(self):
        result = run_lint([FIXTURES], root=REPO_ROOT, select=["ISO003"])
        rules = {a.finding.rule for a in result.assessed}
        assert rules == {"ISO003"}

    def test_unknown_select_rule_rejected(self):
        from repro.lint.core import LintConfigError

        with pytest.raises(LintConfigError):
            run_lint([FIXTURES], root=REPO_ROOT, select=["NOPE999"])


class TestSuppressions:
    def result(self):
        return lint_fixture("suppressed.py")

    def test_same_line_comment_suppresses(self):
        by_line = {a.finding.line: a for a in self.result().assessed}
        assert by_line[6].status == "suppressed"
        assert by_line[6].justification == "test fixture"

    def test_standalone_comment_above_suppresses(self):
        # The suppression sits two comment lines above the loop — the
        # scanner walks upward through the comment block.
        by_line = {a.finding.line: a for a in self.result().assessed}
        assert by_line[14].status == "suppressed"

    def test_wrong_rule_does_not_cover(self):
        by_line = {a.finding.line: a for a in self.result().assessed}
        assert by_line[20].status == "new"
        assert by_line[20].finding.rule == "DET004"

    def test_marker_inside_a_string_does_not_suppress(self):
        by_line = {a.finding.line: a for a in self.result().assessed}
        assert by_line[26].status == "new"

    def test_suppressed_findings_do_not_fail_the_run(self):
        result = self.result()
        assert not result.ok  # the unsuppressed findings are still new
        assert len(result.suppressed) == 2


class TestStaleSuppressions:
    """Every suppression must name a known rule and cover a finding."""

    def lint_source(self, tmp_path, source, select=None):
        path = tmp_path / "module.py"
        path.write_text(source)
        return run_lint([str(path)], root=str(tmp_path), select=select)

    def test_unknown_rule_fails_the_run(self, tmp_path):
        result = self.lint_source(
            tmp_path, "x = 1  # repro: lint-ignore[DET001] -- a deleted rule\n"
        )
        assert result.stale_suppressions == [
            "module.py:1: suppression names unknown rule 'DET001'"
        ]
        assert result.assessed == []
        assert not result.ok

    def test_suppression_covering_no_finding_fails_the_run(self, tmp_path):
        source = (
            "def f(names):\n"
            "    # repro: lint-ignore[DET004] -- nothing below is a set\n"
            "    return sorted(names)\n"
        )
        result = self.lint_source(tmp_path, source)
        assert result.stale_suppressions == [
            "module.py:2: suppression of DET004 covers no finding"
        ]
        assert not result.ok
        assert self.lint_source(tmp_path, source, select=["DET004"]).ok


class TestTextReport:
    def test_text_report_mentions_each_new_finding(self):
        result = run_lint([FIXTURES], root=REPO_ROOT)
        text = render_text(result)
        for rule, (name, line) in EXPECTED.items():
            assert f"tests/fixtures/lint/{name}:{line}:" in text
            assert rule in text
        assert "suppressed.py:20: suppression of ISO003 covers no finding" in text
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
        assert result.stale_suppressions == []

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
        proc = self.run_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_fixture_scan_exits_nonzero(self):
        proc = self.run_cli("tests/fixtures/lint")
        assert proc.returncode == 1
        for name, line in EXPECTED.values():
            assert f"tests/fixtures/lint/{name}:{line}:" in proc.stdout
        new = len(EXPECTED) + SUPPRESSED_NEW
        assert f"files scanned: {new} new, 2 suppressed," in proc.stdout

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule in RULES:
            assert rule in proc.stdout
