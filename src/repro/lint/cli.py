"""The ``python -m repro.lint`` command line.

Exit status contract (pinned by ``tests/unit/test_lint_cli_contract.py``):

- **0** -- every checked file is clean;
- **1** -- violations were found (including parse failures and, under
  ``--strict-suppressions``, stale suppression directives);
- **2** -- usage errors *and* analyzer crashes: a bug in the analyzer
  must never masquerade as either a clean run or a finding.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import List, Optional, Sequence

from repro.lint.engine import all_rules, lint_paths, select_rules
from repro.lint.reporting import (
    render_catalog,
    render_json,
    render_sarif,
    render_text,
)

# Register the built-in ruleset.
import repro.lint.rules  # noqa: F401

#: Default lint scope: everything CI checks.
DEFAULT_PATHS = ["src", "benchmarks", "examples"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static determinism & invariant analysis for the repro tree "
            "(RNG discipline and cross-function RNG flow, determinism "
            "hazards, frozen-world safety, journal write-ahead "
            "ordering, worker purity)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=DEFAULT_PATHS,
        help=(
            "files or directories to lint "
            f"(default: {' '.join(DEFAULT_PATHS)})"
        ),
    )
    parser.add_argument(
        "-f",
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids/names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids/names to skip",
    )
    parser.add_argument(
        "--strict-suppressions",
        action="store_true",
        help=(
            "error (SUP001) on '# repro-lint: disable' comments that no "
            "longer suppress anything"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--catalog",
        action="store_true",
        help=(
            "print the rule catalog as a markdown table (the table "
            "embedded in docs/LINTING.md) and exit"
        ),
    )
    return parser


def _split(tokens: Optional[str]) -> Optional[List[str]]:
    if tokens is None:
        return None
    return [token.strip() for token in tokens.split(",") if token.strip()]


def _emit(report: str, output: Optional[str]) -> None:
    if output is None:
        print(report)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")


def run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            scope = (
                ", ".join(rule.path_patterns) if rule.path_patterns else "all files"
            )
            print(f"{rule.rule_id}  {rule.name}  [{scope}]")
            print(f"    {rule.summary}")
        return 0

    if args.catalog:
        _emit(render_catalog(), args.output)
        return 0

    rules = select_rules(select=_split(args.select), ignore=_split(args.ignore))
    if not rules:
        parser.error("no rules left after --select/--ignore filtering")

    result = lint_paths(
        args.paths, rules, strict_suppressions=args.strict_suppressions
    )
    if args.format == "json":
        report = render_json(result)
    elif args.format == "sarif":
        report = render_sarif(result)
    else:
        report = render_text(result)
    _emit(report, args.output)
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(parser, args)
    except SystemExit:
        raise
    except OSError as exc:
        # Unreadable path / unwritable --output: a usage-level problem.
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # An analyzer crash must be loud and distinguishable from both
        # "clean" and "findings" -- CI treats 2 as infrastructure red.
        print("repro.lint: internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
