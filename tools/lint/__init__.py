"""``repro lint`` — AST-based contract linter for this repo's invariants.

The determinism and resource-lifecycle guarantees that
the parity/chaos test suites check *dynamically* are enforced here
*statically*, so third-party-shaped code entering through the registry
and session seams fails fast instead of silently breaking bit-identical
replay.  See ``docs/ARCHITECTURE.md`` §12 for the rule table and
``tools/lint/rules/`` for the implementations.

Entry points::

    python -m tools.lint [paths…]      # from the repo root
    python -m repro lint [paths…]      # CLI subcommand, same engine

Programmatic use::

    from tools.lint import run_lint
    result = run_lint(repo_root, paths=("src",))
    assert result.ok, result.findings
"""

from tools.lint.base import FileContext, Finding, ImportMap, RepoContext, Rule
from tools.lint.engine import LintResult, run_lint
from tools.lint.rules import all_rules, register_rule, resolve_rules

__all__ = [
    "FileContext",
    "Finding",
    "ImportMap",
    "LintResult",
    "RepoContext",
    "Rule",
    "all_rules",
    "register_rule",
    "resolve_rules",
    "run_lint",
]
