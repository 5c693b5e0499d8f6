"""``python -m repro lint`` — run the static analyzer.

Exit status: 0 when the tree is clean, 1 when there are findings, 2 on
usage errors.  ``--format json`` emits the CI artifact form; ``--list-rules``
prints every rule id with its one-line description.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import repro
from repro.lint.engine import ALL_RULES, format_json, format_text, run_lint


def default_src_root() -> Path:
    """The installed ``repro`` package directory (``src/repro`` in a checkout)."""
    return Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "AST-based determinism and lock-discipline analyzer for the "
            "repro tree."
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--src",
        default=None,
        metavar="DIR",
        help="source root to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the report to FILE",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule id with its description and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in sorted(ALL_RULES):
            print(f"{rule}  {ALL_RULES[rule]}")
        return 0
    src_root = Path(args.src) if args.src is not None else default_src_root()
    if not src_root.is_dir():
        print(f"lint: source root is not a directory: {src_root}", file=sys.stderr)
        return 2
    findings = run_lint(src_root)
    report = format_json(findings) if args.format == "json" else format_text(findings)
    print(report)
    if args.output is not None:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    return 1 if findings else 0
