"""R1 — RNG discipline: every random stream routes through ``repro._rng``.

The reproducibility contract (docs/ARCHITECTURE.md §2) is that a run's
entire stochastic behavior derives from one seed threaded through
:func:`repro._rng.as_generator`.  Any other entropy source — the numpy
legacy global state, ``np.random.default_rng`` constructed ad hoc, the
stdlib :mod:`random` module, ``os.urandom``, a zero-entropy
``SeedSequence()``, or a wall-clock-derived seed — silently breaks
bit-identical replay, so all of them are banned outside ``_rng.py``
itself.
"""

from __future__ import annotations

import ast

from tools.lint.base import FileContext, ImportMap, Rule
from tools.lint.rules import register_rule

#: numpy.random legacy/global-state entry points that bypass Generator
#: streams entirely (np.random.seed, np.random.rand, …).  Any lowercase
#: attribute call on numpy.random is flagged; these get a sharper message.
NUMPY_RANDOM_ALLOWED = frozenset({"Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox", "SFC64", "MT19937"})

#: Wall-clock / OS entropy callables that must never feed a seed.
ENTROPY_SOURCES = frozenset({"time.time", "time.time_ns", "os.urandom", "uuid.uuid4"})


def entropy_calls(tree: ast.AST, imports: ImportMap):
    """Yield ``(node, message)`` for every banned entropy construction."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        canonical = imports.canonical(node.func)
        if canonical is None:
            continue
        if canonical == "numpy.random.default_rng":
            yield node, (
                "np.random.default_rng outside repro._rng — thread the "
                "seed/rng through repro._rng.as_generator instead"
            )
        elif canonical == "numpy.random.SeedSequence":
            if not node.args and not node.keywords:
                yield node, (
                    "np.random.SeedSequence() with no entropy draws OS "
                    "entropy — pass explicit entropy for a replayable stream"
                )
            elif _mentions_entropy_source(node, imports):
                yield node, (
                    "wall-clock/OS entropy seeds a SeedSequence — pass an "
                    "explicit seed"
                )
        elif canonical.startswith("numpy.random."):
            tail = canonical.rsplit(".", 1)[1]
            if tail not in NUMPY_RANDOM_ALLOWED:
                yield node, (
                    f"legacy global-state RNG np.random.{tail} — draw from a "
                    "seeded Generator (repro._rng.as_generator) instead"
                )
        elif canonical == "random" or canonical.startswith("random."):
            yield node, (
                f"stdlib random call {canonical!r} — the random module is "
                "banned; draw from a seeded Generator (repro._rng.as_generator)"
            )
        elif canonical in ("os.urandom", "uuid.uuid4"):
            yield node, (
                f"{canonical} is unseeded OS entropy — derive randomness "
                "from a seeded Generator (repro._rng.as_generator)"
            )
        elif canonical.endswith("_rng.as_generator") or canonical == "repro._rng.as_generator":
            if _mentions_entropy_source(node, imports):
                yield node, (
                    "wall-clock/OS entropy passed to as_generator — pass an "
                    "explicit seed so runs replay bit-identically"
                )


def _mentions_entropy_source(call: ast.Call, imports: ImportMap) -> bool:
    """True when any argument subtree calls a wall-clock/OS entropy source."""
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Call):
                canonical = imports.canonical(sub.func)
                if canonical in ENTROPY_SOURCES:
                    return True
    return False


@register_rule
class RngDisciplineRule(Rule):
    id = "R1"
    name = "rng-discipline"
    description = (
        "all RNG streams must route through repro._rng.as_generator; no "
        "default_rng/legacy np.random/stdlib random/os.urandom/time seeds "
        "outside _rng.py"
    )
    exempt_suffixes = ("repro/_rng.py",)

    def check_file(self, ctx: FileContext):
        if not self.applies_to(ctx.rel):
            return
        imports = ImportMap(ctx.tree)
        # Importing the stdlib random module is itself a finding: there is
        # no sanctioned use, and flagging the import catches dead seams.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(ctx, node, (
                            "import of the stdlib random module — use "
                            "repro._rng.as_generator streams"
                        ))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    yield self.finding(ctx, node, (
                        "import from the stdlib random module — use "
                        "repro._rng.as_generator streams"
                    ))
        for node, message in entropy_calls(ctx.tree, imports):
            yield self.finding(ctx, node, message)
