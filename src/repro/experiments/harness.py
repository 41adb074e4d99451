"""Running registered algorithms on experiment cells.

:func:`solve_cell` is the one solve step of every front end: grid cells,
``repro serve`` queries and ``repro run`` each hand it a
:class:`~repro.experiments.grid.GridCell`, its dataset, the
:class:`~repro.experiments.config.ExperimentConfig`, a seed and an
optional :class:`~repro.api.session.AllocationSession`.  It builds the
cell's instance and solves it through :func:`run_algorithm`, which
compiles the config (plus the dataset's free ``OPT_s`` lower bounds)
into an :class:`~repro.api.spec.EngineSpec` and hands it to
:func:`repro.solve` or the session.  Any algorithm in the registry —
the paper's four or a user-registered variant — is runnable by name.
:func:`session_deltas` is what a warm solve cost its session, as grid
rows and serve payloads report it.
"""

from __future__ import annotations

from dataclasses import replace

from repro._rng import as_generator
from repro.errors import InstanceError
from repro.api.registry import BUILTIN_ALGORITHMS, get_algorithm
from repro.api.session import apply_edge_batch
from repro.api.solve import solve
from repro.core.allocation import AllocationResult
from repro.core.instance import RMInstance
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import Dataset

#: The per-solve session counters grid rows and serve payloads report.
SESSION_DELTAS = ("sample_batches", "sets_sampled", "store_hits", "store_misses")

#: The paper's four Section-5 algorithms (figure/table runners iterate
#: these); the registry may hold more — run_algorithm accepts any entry.
ALGORITHMS = BUILTIN_ALGORITHMS


def opt_lower_for(dataset: Dataset, instance: RMInstance, config: ExperimentConfig):
    """The ``opt_lower`` *config* asks for: singleton bounds or ``"kpt"``."""
    if config.opt_lower_mode == "singleton":
        return dataset.opt_lower_bounds(instance.h)
    return "kpt"


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


def solve_cell(
    cell,
    dataset: Dataset,
    config: ExperimentConfig,
    seed: int | None,
    session=None,
    updates=None,
) -> tuple[AllocationResult, list[dict]]:
    """Solve *cell* on *dataset*; returns ``(result, reports)``.

    A static cell (*updates* ``None``) solves its instance once, with
    ``OPT_s`` priced as *config* asks.  A dynamic cell applies the edge
    batches in *updates*, one
    :func:`~repro.api.session.apply_edge_batch` each, and solves the
    market left after the last; it prices ``OPT_s`` with KPT, since the
    dataset's singleton bounds describe the unmutated graph, and
    *reports* holds one report per batch.  Through a *session*, a
    dynamic cell first solves on the unmutated graph, so the batches
    repair its RR stores instead of resampling them.  *seed* ``None``
    falls back to the config's seed.
    """
    instance = dataset.build_instance(
        incentive_model=cell.incentive_model,
        alpha=cell.alpha,
        h=cell.h,
        budget_override=cell.budget,
        cpe_override=cell.cpe,
    )
    reports: list[dict] = []
    if updates is not None:
        config = replace(config, opt_lower_mode="kpt")
        if session is not None:
            run_algorithm(
                cell.algorithm, dataset, instance, config, cell.window, seed, session
            )
        graph, probs = dataset.graph, instance.ad_probs
        for batch in updates:
            graph, probs, report = apply_edge_batch(graph, probs, batch, session)
            reports.append(report)
        instance = RMInstance(graph, instance.advertisers, probs, instance.incentives)
    result = run_algorithm(
        cell.algorithm, dataset, instance, config, cell.window, seed, session
    )
    return result, reports


def session_deltas(before: dict, after: dict) -> dict:
    """The :data:`SESSION_DELTAS` counters between two ``session.stats``."""
    return {key: after[key] - before[key] for key in SESSION_DELTAS}


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
