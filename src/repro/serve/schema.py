"""Request/response schema of the ``repro serve`` allocation service.

One allocation query is a :class:`QueryRequest`: a
:class:`~repro.experiments.grid.GridCell` — a grid-style *dataset entry*
(which fully determines the graph **and** the probability family, and
so the cell's :attr:`~repro.experiments.grid.GridCell.pool_key`, the
grid's session-group key) plus the per-query axes a warm
:class:`~repro.api.session.AllocationSession` re-solves cheaply:
algorithm, ``h``, budget, CPE, incentive model, α and TI-CSRM window —
and the query's RNG seed.  Deliberately *absent* are engine knobs
(``eps``, ``theta_cap``, ``workers``, byte budgets): those are fixed by
the daemon's :class:`~repro.experiments.config.ExperimentConfig` at
startup, because a session pins them for its lifetime — a query that
could flip them would silently fork the pool key space.

Requests and responses are plain JSON objects; :meth:`QueryRequest.from_dict`
rejects unknown keys and invalid axis values — the cell's own checks,
non-finite numbers included, since the daemon's JSON parser accepts
``NaN`` and ``Infinity`` — with :class:`~repro.errors.ServeError` (the
server maps that to HTTP 400).  :func:`result_payload` serializes an
:class:`~repro.core.allocation.AllocationResult` losslessly — seed sets
in insertion order, per-ad revenue/cost floats untouched — so a served
response can be compared byte-for-byte against a direct
:func:`repro.solve` of the same spec and seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro._checks import check_int
from repro.errors import ServeError
from repro.core.allocation import AllocationResult
from repro.experiments.grid import GridCell
from repro.experiments.grid import session_group_key as pool_key


@dataclass(frozen=True)
class QueryRequest(GridCell):
    """One allocation query: a cell plus its seed, validated at construction.

    ``dataset`` is a grid-style entry (``{"name": ...}`` for a synthetic
    analog or ``{"path": ...}`` for an ingested edge list, plus builder
    keyword arguments such as ``n``/``h``/``probs``).  ``h``, ``budget``
    and ``cpe`` override the built dataset's marketplace per query —
    exactly the knobs of
    :meth:`repro.experiments.datasets.Dataset.build_instance`.  Valid
    numbers are stored normalized (``float``/``int``), so the echoed
    query is canonical.  ``seed`` is the query's RNG seed; ``None``
    falls back to the daemon config's seed, and the *effective* seed is
    echoed in the response, so every response is reproducible offline.
    """

    seed: int | None = None

    _error = ServeError
    _normalize = True

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self,
            "seed",
            check_int(self.seed, "seed", error=ServeError, minimum=0, optional=True),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The query as a JSON-able dict (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "QueryRequest":
        """Build a query from a parsed JSON object; rejects unknown keys."""
        if not isinstance(data, dict):
            raise ServeError(
                f"query must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ServeError(
                f"unknown query keys: {sorted(unknown)}; known: {sorted(known)}"
            )
        if "dataset" not in data:
            raise ServeError("query needs a 'dataset' entry")
        return cls(**data)


def result_payload(
    request: QueryRequest,
    result: AllocationResult,
    *,
    effective_seed: int | None,
    serve: dict | None = None,
) -> dict:
    """Serialize one solved query as the daemon's JSON response body.

    The allocation is lossless: ``allocation[i]`` is ad *i*'s seed list
    in insertion order and the per-ad revenue/cost lists are the
    engine's floats unrounded, so equality with a direct
    :func:`repro.solve` run is byte-equality of the JSON.  ``serve``
    carries the service-level provenance block (pool key, warm hit,
    queue wait) the pool/server attach.
    """
    return {
        "status": "ok",
        "query": request.to_dict(),
        "effective_seed": effective_seed,
        "algorithm": result.algorithm,
        "allocation": result.allocation.seed_sets(),
        "revenue_per_ad": [float(r) for r in result.revenue_per_ad],
        "seeding_cost_per_ad": [float(c) for c in result.seeding_cost_per_ad],
        "revenue": result.total_revenue,
        "seed_cost": result.total_seeding_cost,
        "seeds": result.total_seeds,
        "runtime_s": float(result.runtime_seconds),
        "engine_spec": result.extras.get("engine_spec"),
        "serve": serve or {},
    }


def error_payload(error_type: str, message: str, **extra) -> dict:
    """The JSON body of every non-200 response (uniform error shape)."""
    payload = {"status": "error", "error_type": error_type, "error": str(message)[:500]}
    payload.update(extra)
    return payload
