"""Request/response schema of the ``repro serve`` allocation service.

One allocation query is a :class:`QueryRequest`: a grid-style *dataset
entry* (which fully determines the graph **and** the probability family
— the same contract as :func:`repro.experiments.grid.session_group_key`)
plus the per-query axes a warm
:class:`~repro.api.session.AllocationSession` re-solves cheaply:
algorithm, ``h``, budget, CPE, incentive model, α, TI-CSRM window and
the RNG seed.  Deliberately *absent* are engine-accuracy knobs (``eps``,
``theta_cap``, backend, workers, byte budgets): those are fixed
by the daemon's :class:`~repro.experiments.config.ExperimentConfig` at
startup, because a session pins them for its lifetime — a query that
could flip them would silently fork the pool key space.

Requests and responses are plain JSON objects; :meth:`QueryRequest.from_dict`
rejects unknown keys and invalid axis values with
:class:`~repro.errors.ServeError` (the server maps that to HTTP 400).
:func:`result_payload` serializes an
:class:`~repro.core.allocation.AllocationResult` losslessly — seed sets
in insertion order, per-ad revenue/cost floats untouched — so a served
response can be compared byte-for-byte against a direct
:func:`repro.solve` of the same spec and seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from repro.errors import ServeError
from repro.api.registry import algorithm_names
from repro.core.allocation import AllocationResult
from repro.incentives.models import INCENTIVE_MODELS


def _canonical(data) -> str:
    """Canonical JSON for digests (same form the grid runner uses)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def pool_key(dataset_entry: dict) -> str:
    """The warm-session pool key of a dataset entry.

    Identical in shape and semantics to
    :func:`repro.experiments.grid.session_group_key`: a human-readable
    dataset label plus a digest of the *full* entry (name/path and every
    builder option, probability model included), so two entries with the
    same label but different builder options never share a session.
    """
    from repro.experiments.grid import dataset_label

    digest = hashlib.sha256(_canonical(dict(dataset_entry)).encode()).hexdigest()[:8]
    return f"{dataset_label(dict(dataset_entry))}@{digest}"


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
        from repro.experiments.grid import dataset_label

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
        if self.incentive_model not in INCENTIVE_MODELS:
            raise ServeError(
                f"unknown incentive model {self.incentive_model!r}; "
                f"options: {sorted(INCENTIVE_MODELS)}"
            )
        self._check_number("alpha", minimum=0.0)
        self._check_number("budget", minimum=0.0, optional=True)
        self._check_number("cpe", minimum=0.0, optional=True)
        self._check_int("h", minimum=1, optional=True)
        self._check_int("window", minimum=1, optional=True)
        self._check_int("seed", minimum=0, optional=True)

    def _check_number(self, name: str, *, minimum: float, optional: bool = False) -> None:
        value = getattr(self, name)
        if value is None:
            if optional:
                return
            raise ServeError(f"{name} must be a number, got None")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ServeError(f"{name} must be a number, got {value!r}")
        if value < minimum:
            raise ServeError(f"{name} must be >= {minimum}, got {value}")
        object.__setattr__(self, name, float(value))

    def _check_int(self, name: str, *, minimum: int, optional: bool = False) -> None:
        value = getattr(self, name)
        if value is None:
            if optional:
                return
            raise ServeError(f"{name} must be an integer, got None")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ServeError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ServeError(f"{name} must be >= {minimum}, got {value}")

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
