"""``python -m repro lint`` — the analyzer's command-line front end.

Exit status: 0 when the tree is clean (no new findings, no stale
baseline entries), 1 when it is not, 2 on unusable input — the same
convention as the other repro commands, so CI can gate on it directly.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.lint.baseline import Baseline, apply_baseline
from repro.lint.core import LintResult, run_lint
from repro.lint.report import render_json, render_rules, render_text


def add_lint_arguments(parser) -> None:
    """Attach the lint flags to an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="grandfather findings listed in FILE; stale entries fail "
             "the run",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="write a baseline covering every currently-new finding, "
             "then exit 0",
    )
    parser.add_argument(
        "--root", default=None,
        help="directory paths in the report are relative to (default: cwd)",
    )
    parser.add_argument(
        "--select", metavar="RULE[,RULE...]", default=None,
        help="run only the given rule IDs",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="text format: also list suppressed/baselined findings",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def run(args) -> int:
    """Execute one lint invocation from parsed flags; returns exit status."""
    if args.list_rules:
        sys.stdout.write(render_rules())
        return 0
    paths = args.paths or ["src"]
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select else None
    )
    result: LintResult = run_lint(paths, root=args.root, select=select)

    if args.write_baseline:
        baseline = Baseline.from_result(result)
        baseline.save(args.write_baseline)
        print(
            f"baseline -> {args.write_baseline} "
            f"({len(baseline.entries)} entries)"
        )
        return 0

    if args.baseline:
        apply_baseline(result, Baseline.load(args.baseline))

    if args.fmt == "json":
        sys.stdout.write(render_json(result))
    else:
        sys.stdout.write(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    import argparse

    from repro.errors import ReproError

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="static invariant analysis (determinism, scheduling "
                    "contracts, entity isolation)",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
