"""R6 — doc staleness markers point at live code.

Markdown files under ``docs/`` (plus the top-level ``README.md``) tie
sections to code with HTML-comment markers::

    <!-- staleness-marker: src/repro/rrset/sampler.py:RRSampler.sample_batch_flat -->

Formats accepted after the path:

* ``path`` — the file must exist;
* ``path:function`` — a module-level function (or class) of that name;
* ``path:Class.method`` — a method (or nested class / class-level
  assignment) inside the class.

Resolution is purely syntactic (``ast``).  The contract documents
(``docs/ARCHITECTURE.md``, ``docs/EXPERIMENTS.md``) must also contain
at least one marker each when present — a wholesale deletion should
fail loudly, not pass vacuously.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tools.lint.base import RepoContext, Rule
from tools.lint.rules import register_rule

MARKER_RE = re.compile(r"<!--\s*staleness-marker:\s*(?P<target>[^\s]+)\s*-->")


def iter_marker_files(root: Path):
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.rglob("*.md"))
    readme = root / "README.md"
    if readme.is_file():
        yield readme


def find_markers(path: Path) -> list[tuple[int, str]]:
    """All ``(line_number, target)`` markers in one markdown file."""
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in MARKER_RE.finditer(line):
            out.append((lineno, match.group("target")))
    return out


def _top_level_names(tree: ast.Module) -> dict[str, ast.AST]:
    names: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    names[tgt.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names[node.target.id] = node
    return names


def _class_members(cls: ast.ClassDef) -> set[str]:
    members: set[str] = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members.add(node.name)
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    members.add(tgt.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.add(node.target.id)
    return members


def resolve(root: Path, target: str) -> str | None:
    """Return an error string, or ``None`` when *target* resolves."""
    path_part, _, symbol = target.partition(":")
    file_path = root / path_part
    if not file_path.is_file():
        return f"file {path_part!r} does not exist"
    if not symbol:
        return None
    if not path_part.endswith(".py"):
        return f"symbol lookup requires a .py file, got {path_part!r}"
    try:
        tree = ast.parse(file_path.read_text())
    except SyntaxError as exc:
        return f"cannot parse {path_part!r}: {exc}"
    names = _top_level_names(tree)
    head, _, tail = symbol.partition(".")
    if head not in names:
        return f"{path_part!r} has no top-level symbol {head!r}"
    if not tail:
        return None
    cls = names[head]
    if not isinstance(cls, ast.ClassDef):
        return f"{head!r} in {path_part!r} is not a class (cannot hold {tail!r})"
    if tail not in _class_members(cls):
        return f"class {head!r} in {path_part!r} has no member {tail!r}"
    return None


def check_root(root: Path) -> list[tuple[str, int, str]]:
    """All failures as ``(relative_md_path, line, message)`` tuples."""
    failures: list[tuple[str, int, str]] = []
    for md in iter_marker_files(root):
        rel = md.relative_to(root).as_posix()
        for lineno, target in find_markers(md):
            error = resolve(root, target)
            if error is not None:
                failures.append((rel, lineno, f"{target} — {error}"))
    for name in ("ARCHITECTURE.md", "EXPERIMENTS.md"):
        doc = root / "docs" / name
        if doc.is_file() and not find_markers(doc):
            failures.append(
                (
                    f"docs/{name}",
                    1,
                    "contains no staleness markers (sections must stay tied to code)",
                )
            )
    return failures


@register_rule
class DocMarkersRule(Rule):
    id = "R6"
    name = "doc-markers"
    description = "documentation staleness markers must resolve to live code"
    scope = "repo"

    def check_repo(self, ctx: RepoContext):
        for rel, lineno, message in check_root(ctx.root):
            yield self.repo_finding(rel, lineno, message)
