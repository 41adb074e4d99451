"""The algorithm registry: named ``(candidate rule, selector)`` pairs.

The paper's four Section-5 algorithms differ in exactly two lines of
Algorithm 2 — how each ad's candidate node is chosen (line 7) and how
the winning (node, ad) pair is selected among the candidates (line 9).
The registry makes that observation the architecture: an algorithm *is*
an :class:`AlgorithmDef` data entry naming its two rules, and the four
paper algorithms are pre-registered entries (their descriptions and
guarantees sit beside the registrations at the end of this module).
:func:`repro.solve` runs any entry under an
:class:`~repro.api.spec.EngineSpec`.

Rules may be the engine's built-in strings (candidate rules
``"ca"``/``"cs"``/``"pagerank"``, selectors
``"revenue"``/``"rate"``/``"round_robin"``) **or** user callables, so
new variants plug in without touching :class:`~repro.core.ti_engine.TIEngine`:

* a candidate rule callable has signature ``rule(engine, ad) -> node | None``
  (return the candidate node id for *ad*, or ``None`` when the ad has no
  candidate; it may set ``engine._states[ad].done``);
* a selector callable has signature
  ``select(engine, candidates) -> candidate | None`` where *candidates*
  is a list of ``(ad, node, marginal_revenue, marginal_payment)``
  tuples and the return value must be one of them (or ``None`` to stop).

Lazy candidate caching is not a spec field: the engine caches whenever
that is exact, so it disables caching for callable candidate rules (it
cannot prove the CELF invalidation argument for arbitrary rules),
matching the windowed-CS treatment.

Registered names are shared state for the whole process: the harness,
the grid runner and the CLI all resolve algorithms here, so a custom
registration is immediately runnable from a grid spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import AllocationError
from repro.api.spec import EngineSpec
from repro.core.ti_engine import validate_rules


@dataclass(frozen=True)
class AlgorithmDef:
    """One registered algorithm: a name plus its two Algorithm-2 rules.

    ``spec_overrides`` are engine-spec fields the algorithm pins on
    every solve (applied *over* the caller's spec — they define the
    algorithm, e.g. a fixed window).  ``supports_window`` gates whether
    a caller-supplied ``window`` reaches the engine; the built-in
    ``"ca"``/``"pagerank"`` rules ignore windows, so passing one would
    only disable lazy caching for no behavioral change — the resolver
    clears it instead.  ``label`` maps the resolved spec to the display
    name stamped on results (TI-CSRM appends its window).
    """

    name: str
    candidate_rule: str | Callable
    selector: str | Callable
    spec_overrides: dict = field(default_factory=dict)
    supports_window: bool = False
    label: Callable[[EngineSpec], str] | None = None

    def display(self, spec: EngineSpec) -> str:
        """The result label for a run under *spec*."""
        if self.label is not None:
            return self.label(spec)
        return self.name


_REGISTRY: dict[str, AlgorithmDef] = {}


def register_algorithm(
    name: str,
    candidate_rule: str | Callable,
    selector: str | Callable,
    *,
    spec_overrides: dict | None = None,
    supports_window: bool | None = None,
    label: Callable[[EngineSpec], str] | None = None,
    replace: bool = False,
) -> AlgorithmDef:
    """Register (and return) a named algorithm.

    *candidate_rule* / *selector* are built-in rule strings or callables
    (see the module docstring for callable signatures).
    *spec_overrides* is validated against :class:`EngineSpec`'s fields
    immediately, so a typo fails at registration, not at first solve.
    *supports_window* defaults to ``True`` for the ``"cs"`` rule and for
    callables, ``False`` otherwise.  Re-registering an existing name
    requires ``replace=True``; the built-in paper algorithms cannot be
    replaced or unregistered.
    """
    if not name or not isinstance(name, str):
        raise AllocationError(f"algorithm name must be a non-empty string, got {name!r}")
    validate_rules(candidate_rule, selector)
    if name in _REGISTRY and not replace:
        raise AllocationError(
            f"algorithm {name!r} is already registered; pass replace=True to override"
        )
    if name in BUILTIN_ALGORITHMS and name in _REGISTRY:
        raise AllocationError(f"cannot replace built-in algorithm {name!r}")
    overrides = dict(spec_overrides or {})
    if overrides:
        # Validate eagerly: applying them to a default spec exercises the
        # same key/value checks every solve will.
        try:
            EngineSpec().override(**overrides)
        except Exception as exc:
            raise AllocationError(
                f"invalid spec_overrides for algorithm {name!r}: {exc}"
            ) from None
    if supports_window is None:
        supports_window = candidate_rule == "cs" or callable(candidate_rule)
    definition = AlgorithmDef(
        name=name,
        candidate_rule=candidate_rule,
        selector=selector,
        spec_overrides=overrides,
        supports_window=bool(supports_window),
        label=label,
    )
    _REGISTRY[name] = definition
    return definition


def get_algorithm(algorithm: str | AlgorithmDef) -> AlgorithmDef:
    """Resolve an algorithm by name (or pass an :class:`AlgorithmDef` through)."""
    if isinstance(algorithm, AlgorithmDef):
        return algorithm
    try:
        return _REGISTRY[algorithm]
    except KeyError:
        raise AllocationError(
            f"unknown algorithm {algorithm!r}; registered: {list(_REGISTRY)}"
        ) from None


def algorithm_names() -> tuple[str, ...]:
    """All registered algorithm names, built-ins first, in registration order."""
    return tuple(_REGISTRY)


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (the paper's built-ins are protected)."""
    if name in BUILTIN_ALGORITHMS:
        raise AllocationError(f"cannot unregister built-in algorithm {name!r}")
    _REGISTRY.pop(name, None)


#: The paper's four Section-5 algorithms, always registered.
BUILTIN_ALGORITHMS = ("TI-CSRM", "TI-CARM", "PageRank-GR", "PageRank-RR")


def _ticsrm_label(spec: EngineSpec) -> str:
    return "TI-CSRM" if spec.window is None else f"TI-CSRM({spec.window})"


# TI-CSRM, the scalable CS-GREEDY: Algorithm 5's candidate (the
# unassigned node of maximum coverage-to-incentive ratio), and the winner
# of maximum marginal revenue per marginal payment, subject to budget
# feasibility.  ``window`` restricts the candidate search to the w
# unassigned nodes of highest marginal revenue (Section 5, "Revenue &
# running time vs. window size"): window=1 collapses to TI-CARM's
# candidate, None (w = n) is the full cost-sensitive rule and the most
# expensive.  Guarantee: Theorem 3's bound, deteriorated by Theorem 4's
# additive RR-estimation term.
register_algorithm("TI-CSRM", "cs", "rate", label=_ticsrm_label)
# TI-CARM, the scalable CA-GREEDY (Section 4.2): Algorithm 4's candidate
# (the unassigned node of maximum residual RR coverage), and the winner
# of maximum marginal revenue, subject to budget feasibility.
# Guarantee: Theorem 2's bound, deteriorated by Theorem 4's additive
# RR-estimation term.
register_algorithm("TI-CARM", "ca", "revenue")
# The PageRank baselines replace line 7 with the ad-specific PageRank
# order: the random surfer walks arcs in the influence direction with
# transition mass proportional to p^i_{u,v}.  PageRank-GR keeps the
# greedy winner (maximum marginal revenue); PageRank-RR assigns
# candidates to advertisers in round-robin order.  Budget feasibility
# and the RR estimates (collections, θ schedules) are TI-CARM's, so
# differences in outcome isolate the candidate rule, which is the
# comparison the paper's quality experiments make.
register_algorithm("PageRank-GR", "pagerank", "revenue")
register_algorithm("PageRank-RR", "pagerank", "round_robin")
