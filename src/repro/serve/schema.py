"""Request/response schema of the ``repro serve`` allocation service.

One allocation query is a :class:`QueryRequest`: a grid-style *dataset
entry* (which fully determines the graph **and** the probability family;
:func:`pool_key` is the grid's
:func:`~repro.experiments.grid.session_group_key`, so both layers key
warm sessions alike) plus the per-query axes a warm
:class:`~repro.api.session.AllocationSession` re-solves cheaply:
algorithm, ``h``, budget, CPE, incentive model, α, TI-CSRM window and
the RNG seed.  Deliberately *absent* are engine knobs (``eps``,
``theta_cap``, ``workers``, byte budgets): those are fixed
by the daemon's :class:`~repro.experiments.config.ExperimentConfig` at
startup, because a session pins them for its lifetime — a query that
could flip them would silently fork the pool key space.

Requests and responses are plain JSON objects; :meth:`QueryRequest.from_dict`
rejects unknown keys and invalid axis values — non-finite numbers
included, since the daemon's JSON parser accepts ``NaN`` and
``Infinity`` — with :class:`~repro.errors.ServeError` (the server maps
that to HTTP 400).  ``alpha``, ``budget`` and ``cpe`` must be positive,
as :meth:`~repro.experiments.datasets.Dataset.build_instance` requires.
:func:`result_payload` serializes an
:class:`~repro.core.allocation.AllocationResult` losslessly — seed sets
in insertion order, per-ad revenue/cost floats untouched — so a served
response can be compared byte-for-byte against a direct
:func:`repro.solve` of the same spec and seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro._checks import check_int, check_number
from repro.errors import ServeError
from repro.api.registry import algorithm_names
from repro.core.allocation import AllocationResult
from repro.experiments.grid import dataset_label
from repro.experiments.grid import session_group_key as pool_key
from repro.incentives.models import INCENTIVE_MODELS


@dataclass(frozen=True)
class QueryRequest:
    """One allocation query, validated at construction.

    ``dataset`` is a grid-style entry (``{"name": ...}`` for a synthetic
    analog or ``{"path": ...}`` for an ingested edge list, plus builder
    keyword arguments such as ``n``/``h``/``probs``).  ``h``, ``budget``
    and ``cpe`` override the built dataset's marketplace per query —
    exactly the knobs of
    :meth:`repro.experiments.datasets.Dataset.build_instance`.  ``seed``
    is the query's RNG seed; ``None`` falls back to the daemon config's
    seed, and the *effective* seed is echoed in the response, so every
    response is reproducible offline.
    """

    dataset: dict
    algorithm: str = "TI-CSRM"
    h: int | None = None
    budget: float | None = None
    cpe: float | None = None
    incentive_model: str = "linear"
    alpha: float = 1.0
    window: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.dataset, dict):
            raise ServeError(
                f"dataset must be an object like {{'name': ...}}, got "
                f"{self.dataset!r}"
            )
        try:
            dataset_label(self.dataset)
        except Exception as exc:
            raise ServeError(str(exc)) from None
        object.__setattr__(self, "dataset", dict(self.dataset))
        if self.algorithm not in algorithm_names():
            raise ServeError(
                f"unknown algorithm {self.algorithm!r}; "
                f"options: {list(algorithm_names())}"
            )
        if (
            not isinstance(self.incentive_model, str)
            or self.incentive_model not in INCENTIVE_MODELS
        ):
            raise ServeError(
                f"unknown incentive model {self.incentive_model!r}; "
                f"options: {sorted(INCENTIVE_MODELS)}"
            )
        for name in ("alpha", "budget", "cpe"):
            value = check_number(getattr(self, name), name, error=ServeError,
                                 positive=True, optional=name != "alpha")
            object.__setattr__(self, name, value)
        for name, minimum in (("h", 1), ("window", 1), ("seed", 0)):
            value = check_int(getattr(self, name), name, error=ServeError,
                              minimum=minimum, optional=True)
            object.__setattr__(self, name, value)

    @property
    def pool_key(self) -> str:
        """The session-pool key: the query's dataset entry, digested."""
        return pool_key(self.dataset)

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
