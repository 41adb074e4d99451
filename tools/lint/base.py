"""Object model of the ``repro lint`` framework.

A :class:`Rule` inspects source (usually its :mod:`ast`) and yields
:class:`Finding`s.  Rules come in two scopes:

* ``"file"`` — :meth:`Rule.check_file` runs once per linted Python
  file with a parsed :class:`FileContext`;
* ``"repo"`` — :meth:`Rule.check_repo` runs once per lint invocation
  with a :class:`RepoContext` (for checks that span files, like the
  doc-marker and public-API rules).

Everything here is purely syntactic: no file under lint is imported,
so the linter runs on any interpreter with nothing but the stdlib —
including hosts where numpy is absent.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class Finding:
    """One contract violation at a specific source location."""

    rule: str  #: stable rule id (``"R1"`` … ``"R7"``, ``"E0"`` for parse errors)
    name: str  #: rule slug, e.g. ``"rng-discipline"``
    path: str  #: repo-relative posix path
    line: int  #: 1-based line number
    col: int  #: 0-based column offset
    message: str

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: line numbers drift, (rule, path, message) don't."""
        return (self.rule, self.path, self.message)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}[{self.name}] {self.message}"


class FileContext:
    """One parsed Python file under lint."""

    def __init__(self, root: Path, path: Path, source: str, tree: ast.Module) -> None:
        self.root = root
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree


class RepoContext:
    """The whole lint invocation, for repo-scoped rules."""

    def __init__(self, root: Path, files: list[Path]) -> None:
        self.root = root
        self.files = list(files)


class Rule:
    """Base class for lint rules; subclass, set the metadata, register.

    New rules plug in the way algorithms do in the engine registry::

        from tools.lint.base import Rule
        from tools.lint.rules import register_rule

        @register_rule
        class MyRule(Rule):
            id = "R8"
            name = "my-invariant"
            description = "one-line summary shown by --list-rules"

            def check_file(self, ctx):
                yield self.finding(ctx, node, "message")
    """

    id: str = ""
    name: str = ""
    description: str = ""
    scope: str = "file"  #: ``"file"`` or ``"repo"``
    #: repo-relative posix suffixes this rule never applies to.
    exempt_suffixes: tuple[str, ...] = ()

    def applies_to(self, rel: str) -> bool:
        return not any(rel.endswith(suffix) for suffix in self.exempt_suffixes)

    def finding(self, ctx: FileContext, node: ast.AST | int, message: str) -> Finding:
        """Build a :class:`Finding` anchored at *node* (or a bare line number)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = getattr(node, "lineno", 1), getattr(node, "col_offset", 0)
        return Finding(self.id, self.name, ctx.rel, line, col, message)

    def repo_finding(self, rel: str, line: int, message: str) -> Finding:
        return Finding(self.id, self.name, rel, line, 0, message)

    def check_file(self, ctx: FileContext):
        return ()

    def check_repo(self, ctx: RepoContext):
        return ()


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Canonicalizes local names through a module's import statements.

    ``import numpy as np`` makes ``np.random.default_rng`` canonicalize
    to ``numpy.random.default_rng``; ``from multiprocessing import
    shared_memory`` makes ``shared_memory.SharedMemory`` canonicalize to
    ``multiprocessing.shared_memory.SharedMemory``.  Names with no
    import binding canonicalize to ``None`` — classification is opt-in,
    so a local variable that happens to be called ``random`` never
    trips an RNG rule.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def canonical(self, node: ast.AST) -> str | None:
        """Fully-qualified dotted path of a Name/Attribute chain, or ``None``."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head)
        if base is None:
            return None
        return f"{base}.{rest}" if rest else base
