"""Rule registry: rules plug in like algorithms in the engine registry.

``@register_rule`` on a :class:`tools.lint.base.Rule` subclass makes it
part of every lint run; :func:`all_rules` returns the registered rules
in id order and :func:`resolve_rules` maps a ``--rules`` selector
(comma-separated ids or slugs) onto them.  The built-in contract rules
R1 and R3–R7 register themselves when this package is imported; the
retired R2 keeps its id unused.
"""

from __future__ import annotations

from tools.lint.base import Rule

_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule (id/name unique)."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} must set a non-empty id and name")
    for existing in _REGISTRY.values():
        if existing.id == rule.id or existing.name == rule.name:
            raise ValueError(
                f"rule id/name collision: {rule.id}[{rule.name}] vs "
                f"{existing.id}[{existing.name}]"
            )
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def resolve_rules(selector: str | None) -> list[Rule]:
    """Rules for a ``--rules`` selector (ids or slugs, comma-separated)."""
    if not selector:
        return all_rules()
    by_token = {rule.id: rule for rule in _REGISTRY.values()}
    by_token.update({rule.name: rule for rule in _REGISTRY.values()})
    chosen: list[Rule] = []
    for token in (t.strip() for t in selector.split(",")):
        if not token:
            continue
        if token not in by_token:
            known = ", ".join(sorted(by_token))
            raise ValueError(f"unknown rule {token!r}; known: {known}")
        if by_token[token] not in chosen:
            chosen.append(by_token[token])
    return sorted(chosen, key=lambda rule: rule.id)


# Built-in contract rules register on import (after register_rule exists).
from tools.lint.rules import rng  # noqa: E402,F401
from tools.lint.rules import lifecycle  # noqa: E402,F401
from tools.lint.rules import payload  # noqa: E402,F401
from tools.lint.rules import iteration  # noqa: E402,F401
from tools.lint.rules import doc_markers  # noqa: E402,F401
from tools.lint.rules import public_api  # noqa: E402,F401
