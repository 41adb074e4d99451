"""Running registered algorithms on experiment cells.

One entry point, :func:`run_algorithm`, compiles an
:class:`~repro.experiments.config.ExperimentConfig` (plus the dataset's
free ``OPT_s`` lower bounds) into an
:class:`~repro.api.spec.EngineSpec` and hands it to
:func:`repro.solve`.  Any algorithm in the registry — the paper's four
or a user-registered variant — is runnable by name; an optional
:class:`~repro.api.session.AllocationSession` warms repeated cells
over the same dataset.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator
from repro.errors import InstanceError
from repro.api.registry import BUILTIN_ALGORITHMS, get_algorithm
from repro.api.solve import solve
from repro.core.allocation import AllocationResult
from repro.core.instance import RMInstance
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import Dataset

#: The paper's four Section-5 algorithms (figure/table runners iterate
#: these); the registry may hold more — run_algorithm accepts any entry.
ALGORITHMS = BUILTIN_ALGORITHMS


def opt_lower_for(dataset: Dataset, instance: RMInstance, config: ExperimentConfig):
    """The ``opt_lower`` *config* asks for: singleton bounds or ``"kpt"``."""
    if config.opt_lower_mode == "singleton":
        return dataset.opt_lower_bounds(instance.h)
    if config.opt_lower_mode == "kpt":
        return "kpt"
    raise InstanceError(f"unknown opt_lower_mode {config.opt_lower_mode!r}")


def run_algorithm(
    algorithm: str,
    dataset: Dataset,
    instance: RMInstance,
    config: ExperimentConfig,
    window: int | None = None,
    seed: int | None = None,
    session=None,
) -> AllocationResult:
    """Run one registered algorithm on *instance* with *config*'s estimators.

    *window* reaches only algorithms with a windowed candidate rule
    (TI-CSRM among the built-ins; :func:`repro.solve` clears it for the
    rest).  *session* optionally threads an
    :class:`~repro.api.session.AllocationSession` so repeated cells on
    one dataset reuse RR samples.
    """
    try:
        definition = get_algorithm(algorithm)
    except Exception:
        from repro.api.registry import algorithm_names

        raise InstanceError(
            f"unknown algorithm {algorithm!r}; options: {list(algorithm_names())}"
        ) from None
    spec = config.engine_spec(
        opt_lower=opt_lower_for(dataset, instance, config), window=window, seed=seed
    )
    if session is not None:
        return session.solve(instance, definition, spec)
    return solve(instance, definition, spec)


def run_algorithms(
    dataset: Dataset,
    instance: RMInstance,
    config: ExperimentConfig,
    algorithms=ALGORITHMS,
    window: int | None = None,
) -> dict[str, AllocationResult]:
    """Run several algorithms on the same instance; returns name → result."""
    return {
        name: run_algorithm(name, dataset, instance, config, window=window)
        for name in algorithms
    }


def evaluate_allocation_mc(
    instance: RMInstance,
    result: AllocationResult,
    n_runs: int = 200,
    seed: int = 0,
) -> float:
    """Re-estimate a result's total revenue with independent Monte-Carlo.

    Useful to confirm rankings are not artifacts of the RR estimator that
    produced the allocations.
    """
    from repro.diffusion.montecarlo import estimate_spread

    rng = as_generator(seed)
    total = 0.0
    for i, seeds in enumerate(result.allocation.seed_sets()):
        if not seeds:
            continue
        spread = estimate_spread(
            instance.graph, instance.ad_probs[i], seeds, n_runs=n_runs, rng=rng
        )
        total += instance.cpe(i) * spread
    return total
