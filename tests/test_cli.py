"""Tests for the command-line interface."""

import json
import os
import re

import pytest

from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_register_defaults(self):
        args = build_parser().parse_args(["register"])
        assert args.model == "clock"
        assert args.n == 3

    def test_detector_worst_driver_accepted(self):
        args = build_parser().parse_args(["detector", "--driver", "worst"])
        assert args.driver == "worst"


class TestCommands:
    def test_register_clock(self, capsys):
        code = main(["register", "--ops", "4", "--horizon", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "linearizable     : True" in out

    def test_register_timed(self, capsys):
        code = main(["register", "--model", "timed", "--ops", "4",
                     "--horizon", "60"])
        assert code == 0
        assert "linearizable" in capsys.readouterr().out

    def test_register_baseline(self, capsys):
        code = main(["register", "--model", "baseline", "--ops", "4",
                     "--horizon", "80"])
        assert code == 0

    def test_object_counter(self, capsys):
        code = main(["object", "--type", "counter", "--ops", "4",
                     "--horizon", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "object=counter" in out

    def test_object_gset_timed(self, capsys):
        code = main(["object", "--type", "g-set", "--model", "timed",
                     "--ops", "4", "--horizon", "60"])
        assert code == 0

    def test_object_metrics_publish_the_latency_sketches(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.json")
        assert main(["object", "--type", "counter", "--metrics-out", path]) == 0
        out = capsys.readouterr().out
        assert main(["validate", path]) == 0
        (line,) = [l for l in out.splitlines() if l.startswith("operations:")]
        queries, updates = re.search(
            r"\((\d+) queries, (\d+) updates\)", line
        ).groups()
        with open(path) as handle:
            sketches = json.load(handle)["sketches"]
        assert sketches["repro.op.read_latency"]["count"] == int(queries) > 0
        assert sketches["repro.op.write_latency"]["count"] == int(updates) > 0

    def test_object_trace_has_operation_spans(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        assert main(["object", "--type", "counter", "--ops", "10",
                     "--trace-out", path]) == 0
        assert "operations: 30 " in capsys.readouterr().out
        assert main(["trace", path, "--analyze"]) == 0
        assert "30 operation spans" in capsys.readouterr().out

    def test_detector_accurate(self, capsys):
        code = main(["detector", "--driver", "worst"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suspicions: 0" in out

    def test_detector_naive_shows_false_suspicions(self, capsys):
        code = main(["detector", "--driver", "worst", "--naive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suspicions: 0" not in out

    def test_detector_crash_detected(self, capsys):
        code = main(["detector", "--driver", "worst", "--crash-at", "7"])
        assert capsys.readouterr().out == (
            "timeout=1.2 (per Theorem 4.7), sender crashes at 7\n"
            "heartbeats: 3\n"
            "suspicions: 5 (first at t=9.1)\n"
        )
        assert code == 0

    def test_detector_naive_crash_verdict(self, capsys):
        code = main(["detector", "--naive", "--driver", "worst",
                     "--crash-at", "7"])
        assert capsys.readouterr().out == (
            "timeout=1 (naive), sender crashes at 7\n"
            "heartbeats: 3\n"
            "suspicions: 8 (first at t=2.9)\n"
        )
        assert code == 0

    def test_tdma_sufficient_guard(self, capsys):
        code = main(["tdma", "--guard", "0.1", "--eps", "0.1",
                     "--driver", "fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mutual exclusion : True" in out

    def test_tdma_insufficient_guard_reported(self, capsys):
        code = main(["tdma", "--guard", "0.0", "--eps", "0.2",
                     "--driver", "mixed"])
        out = capsys.readouterr().out
        assert code == 0  # outcome matches the guard < eps prediction
        assert "mutual exclusion : False" in out

    def test_sync(self, capsys):
        code = main(["sync", "--horizon", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "monotone         : True" in out


class TestUsageErrors:
    """Exit 1 means "a check failed"; a flag out of range is exit 2."""

    @pytest.mark.parametrize("argv", [
        "register --read-fraction 2",
        "register --delta 0",
        "register --c 5",
        "register --model mmt --step-bound 0",
        "object --update-fraction 2",
        "serve --n 0 --duration 0.1",
        "load --n 2 --ops 3 --clients-per-node 0",
        "trace BENCHMARK.json",  # JSON, where a JSONL trace is expected
    ])
    def test_bad_value_is_one_error_line_and_exit_two(
        self, argv, capsys, monkeypatch
    ):
        monkeypatch.chdir(REPO_ROOT)
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert "Traceback" not in captured.out + captured.err


class TestLeaderCommand:
    def test_leader_ring(self, capsys):
        code = main(["leader", "--topology", "ring", "--n", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "leaders       : [0]" in out

    def test_leader_chain(self, capsys):
        code = main(["leader", "--topology", "chain", "--n", "4",
                     "--driver", "random"])
        assert code == 0

    def test_leader_parser(self):
        args = build_parser().parse_args(["leader", "--topology", "star"])
        assert args.topology == "star"
