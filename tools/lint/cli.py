"""``python -m tools.lint`` / ``repro lint`` command-line front end.

Exit codes: 0 clean (baselined/pragma-suppressed findings don't fail),
1 when any active finding remains, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.lint.engine import (
    DEFAULT_PATHS,
    default_baseline_path,
    run_lint,
    save_baseline,
)
from tools.lint.rules import all_rules, resolve_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based contract linter: determinism (R1/R5), resource "
            "lifecycle (R3), worker payloads (R4), doc markers (R6), "
            "public API (R7)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to lint, relative to the repo root "
        f"(default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repo root (default: the checkout containing tools/lint)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        dest="format_",
        metavar="{human,json}",
        help="output format (json emits the full LintResult document)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids/slugs to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON path (default: tools/lint/baseline.json)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            scope = "repo" if rule.scope == "repo" else "file"
            print(f"{rule.id}  {rule.name:<20} [{scope}] {rule.description}")
        return 0
    root = (
        Path(args.root).resolve()
        if args.root
        else Path(__file__).resolve().parents[2]
    )
    try:
        rules = resolve_rules(args.rules)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_lint(
            root, paths=args.paths, rules=rules, baseline_path=args.baseline
        )
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    baseline_file = (
        Path(args.baseline) if args.baseline else default_baseline_path(root)
    )
    if args.update_baseline:
        save_baseline(baseline_file, result.findings + result.baselined)
        print(
            f"baseline updated: {len(result.findings) + len(result.baselined)} "
            f"finding(s) written to {baseline_file}"
        )
        return 0

    if args.format_ == "json":
        print(json.dumps(result.to_dict(), indent=2, ensure_ascii=False))
        return 0 if result.ok else 1

    for finding in result.findings:
        print(finding.format())
    notes = []
    if result.baselined:
        notes.append(f"{len(result.baselined)} baselined")
    if result.suppressed:
        notes.append(f"{len(result.suppressed)} pragma-suppressed")
    if result.stale_baseline:
        notes.append(f"{len(result.stale_baseline)} stale baseline entr(y/ies)")
        for entry in result.stale_baseline:
            print(
                f"note: stale baseline entry {entry['rule']} {entry['path']}: "
                f"{entry['message']}"
            )
    suffix = f" ({', '.join(notes)})" if notes else ""
    if result.ok:
        print(
            f"repro lint: clean — {result.files_checked} file(s), "
            f"{len(result.rules)} rule(s){suffix}"
        )
        return 0
    print(
        f"repro lint: {len(result.findings)} finding(s) across "
        f"{result.files_checked} file(s){suffix}"
    )
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
