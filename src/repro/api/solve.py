"""``repro.solve`` — the one-call solving entrypoint.

Every way of running a Section-5 algorithm in this codebase — the
experiment harness, the grid runner, the CLI, adaptive campaigns and
:class:`~repro.api.session.AllocationSession` — funnels through
:func:`solve`: resolve the algorithm in the registry, resolve the
:class:`~repro.api.spec.EngineSpec`, build one
:class:`~repro.core.ti_engine.TIEngine` from it, run it, and stamp the
fully resolved spec into ``AllocationResult.extras["engine_spec"]`` so
every result (and every grid manifest row) carries complete provenance.
"""

from __future__ import annotations

from repro.api.registry import AlgorithmDef, get_algorithm
from repro.api.spec import EngineSpec
from repro.core.allocation import AllocationResult
from repro.core.instance import RMInstance
from repro.core.ti_engine import TIEngine


def resolve_spec(
    algorithm: str | AlgorithmDef,
    spec: EngineSpec | None = None,
    **overrides,
) -> tuple[AlgorithmDef, EngineSpec]:
    """Resolve ``(algorithm, spec, overrides)`` to the spec a solve runs.

    Resolution order (later wins): ``EngineSpec()`` defaults → *spec* →
    keyword *overrides* → the algorithm's registered ``spec_overrides``
    (those define the algorithm, so nothing may undo them).  Algorithms
    whose candidate rule has no windowed form get ``window`` cleared, so
    a shared grid axis never silently degrades another algorithm's lazy
    caching.
    """
    definition = get_algorithm(algorithm)
    resolved = (spec or EngineSpec()).override(**overrides)
    if definition.spec_overrides:
        resolved = resolved.override(**definition.spec_overrides)
    if not definition.supports_window and resolved.window is not None:
        resolved = resolved.override(window=None)
    return definition, resolved


def solve(
    instance: RMInstance,
    algorithm: str | AlgorithmDef = "TI-CSRM",
    spec: EngineSpec | None = None,
    *,
    blocked=None,
    session=None,
    **overrides,
) -> AllocationResult:
    """Run one registered *algorithm* on *instance* under *spec*.

    Parameters
    ----------
    instance:
        The :class:`RMInstance` to allocate.
    algorithm:
        A registered algorithm name (``"TI-CSRM"``, ``"TI-CARM"``,
        ``"PageRank-GR"``, ``"PageRank-RR"``, or anything added via
        :func:`~repro.api.registry.register_algorithm`) or an
        :class:`AlgorithmDef` directly.
    spec:
        An :class:`EngineSpec`; ``None`` means ``EngineSpec()``.  Extra
        keyword *overrides* (e.g. ``seed=3``, ``eps=0.5``) are applied
        on top, so quick calls don't need to build a spec by hand.
    blocked:
        Optional boolean node mask of pre-assigned users (never
        candidates for any ad) — per-query data, not part of the spec.
    session:
        An :class:`~repro.api.session.AllocationSession` to solve
        through; its warm caches (RR stores, pagerank orders, worker
        pool) are used and extended.  Prefer calling
        ``session.solve(...)``, which validates the instance binding.

    The fully resolved spec is echoed into
    ``result.extras["engine_spec"]``.
    """
    definition, resolved = resolve_spec(algorithm, spec, **overrides)
    warm = None
    if session is not None:
        warm = session._warm_state_for(instance)
        resolved = session._pin_spec(resolved)
    result = TIEngine(
        instance,
        resolved,
        candidate_rule=definition.candidate_rule,
        selector=definition.selector,
        blocked=blocked,
        algorithm_name=definition.display(resolved),
        warm=warm,
    ).run()
    if warm is not None:
        # Warm mode stores every ad's sets in shared, prob-keyed stores
        # (see TIEngine); echo what actually ran, not what was asked.
        resolved = resolved.override(share_samples=True)
    result.extras["engine_spec"] = resolved.to_dict()
    if session is not None:
        session._record_solve(result)
    return result
