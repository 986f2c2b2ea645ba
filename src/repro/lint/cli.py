"""``python -m repro lint`` — the analyzer's command-line front end.

Exit status: 0 when the tree is clean (no new findings, no stale
suppressions), 1 when it is not, 2 on unusable input — the same
convention as the other repro commands.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.lint.core import LintResult, run_lint
from repro.lint.report import render_rules, render_text


def add_lint_arguments(parser) -> None:
    """Attach the lint flags to an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to scan (default: src)",
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
        help="also list suppressed findings",
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
    sys.stdout.write(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    import argparse

    from repro.errors import ReproError

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="static analysis: set-iteration order (DET004) and "
                    "payload aliasing (ISO003)",
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
