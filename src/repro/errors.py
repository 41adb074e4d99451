"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised for malformed graph construction or invalid node/edge ids."""


class GraphUpdateError(GraphError):
    """Raised for invalid edge-update batches: unknown ops, updates that
    target a missing edge (delete/set_prob), insertions of an edge that
    already exists, conflicting updates to one edge inside a batch, or
    endpoints/probabilities outside their domain."""


class TopicModelError(ReproError):
    """Raised for invalid topic distributions or probability tensors."""


class InstanceError(ReproError):
    """Raised for inconsistent RM problem instances.

    Examples include budgets that cannot afford a single seed (degenerate
    instances ruled out in Section 2 of the paper), mismatched advertiser
    metadata, or incentive vectors of the wrong length.
    """


class AllocationError(ReproError):
    """Raised when an allocation violates the problem's constraints."""


class SpecError(ReproError):
    """Raised for invalid scenario-grid specs or mismatched run manifests."""


class EstimationError(ReproError):
    """Raised when a spread estimator is asked for an impossible quantity."""


class ConvergenceError(ReproError):
    """Raised when an iterative routine fails to converge."""


class WorkerCrashError(EstimationError):
    """Raised when a sampler worker process (or its shared-memory
    infrastructure) fails: a crashed/hung worker, or a shared-memory
    segment that cannot be created or attached.

    Subclasses :class:`EstimationError` so existing backend error
    handling keeps working; the supervision layer in
    :mod:`repro.rrset.backend` normally recovers from it (bounded
    respawn) before callers ever see it.
    """


class PoolDegradedError(EstimationError):
    """Raised by a :class:`~repro.rrset.backend.SharedGraphPool` that has
    failed — exhausted its respawn budget, or could not create the
    shared-memory block of a probability vector — and shut itself down.

    :class:`~repro.rrset.backend.ParallelBackend` catches this and
    degrades to in-process execution of the same shard plan (bit-identical
    output per ``(seed, workers)``), counting one ``pool_degraded`` in
    the pool's fault counters.
    """


class CellTimeoutError(ReproError):
    """Raised when a grid cell exceeds its per-cell wall-clock timeout."""


class FaultInjectedError(ReproError):
    """Raised by :mod:`repro.faults` at a ``cell.raise`` seam — a
    deterministic, injected failure for chaos tests."""


class ServeError(ReproError):
    """Raised by the :mod:`repro.serve` layer: malformed queries, client
    transport failures, and daemon misconfiguration.

    Server-side, a :class:`ServeError` maps to an HTTP 4xx (the query is
    at fault); unexpected solve failures map to 5xx without being
    wrapped, so their class names survive into the error payload.
    """
