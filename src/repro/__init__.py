"""repro — Revenue Maximization in Incentivized Social Advertising.

A complete reproduction of Aslay, Bonchi, Lakshmanan & Lu (VLDB 2017):
the RM problem (monotone submodular maximization under a partition
matroid plus submodular knapsacks), the CA-GREEDY / CS-GREEDY reference
algorithms with their curvature-based guarantees, the scalable RR-set
realizations TI-CARM / TI-CSRM, the PageRank baselines, and every
substrate they stand on (CSR graphs, the TIC propagation model, RR-set
sampling with TIM sample sizes, incentive models, synthetic analog
datasets, and the experiment harness for all tables and figures).

Quickstart — one spec, one call::

    import repro

    dataset = repro.build_dataset("flixster_syn", n=1000)
    instance = dataset.build_instance(incentive_model="linear", alpha=0.2)
    spec = repro.EngineSpec(eps=0.5, theta_cap=2000,
                            opt_lower=dataset.opt_lower_bounds(), seed=1)
    result = repro.solve(instance, "TI-CSRM", spec)
    print(result.summary())

Repeated solves over the same graph (varying budgets, CPEs or
incentives) should go through a session, which keeps RR samples and
the worker pool warm::

    with repro.AllocationSession(dataset.graph, spec=spec) as session:
        for budget in (40.0, 60.0, 80.0):
            inst = dataset.build_instance(budget_override=budget)
            print(session.solve(inst, "TI-CSRM").summary())

The four paper algorithms are entries of the algorithm registry
(``repro.algorithm_names()``), not functions of their own: name one in
``repro.solve`` or ``session.solve``.
"""

from repro.errors import (
    ReproError,
    GraphError,
    TopicModelError,
    InstanceError,
    AllocationError,
    SpecError,
    EstimationError,
    ConvergenceError,
    WorkerCrashError,
    PoolDegradedError,
    CellTimeoutError,
    FaultInjectedError,
    ServeError,
)
from repro.faults import FaultPlan, FaultRule, fault_plan
from repro.graph import (
    DiGraph,
    pagerank,
    compute_stats,
    ingest_cached,
    ingest_edge_list,
    load_edge_list,
    save_edge_list,
)
from repro.topics import (
    TopicDistribution,
    TICModel,
    weighted_cascade,
    random_tic_model,
    pure_competition_ads,
)
from repro.diffusion import (
    simulate_cascade,
    simulate_competitive_cascades,
    estimate_competitive_revenue,
    estimate_spread,
    estimate_singleton_spreads,
    estimate_singleton_spreads_rr,
    exact_spread,
)
from repro.rrset import (
    RRSampler,
    RRCollection,
    sample_size,
    KPTEstimator,
    resolve_kernel,
    SamplerBackend,
    ParallelBackend,
    SharedGraphPool,
)
from repro.incentives import INCENTIVE_MODELS, compute_incentives
from repro.core import (
    Advertiser,
    RMInstance,
    Allocation,
    AllocationResult,
    ExactOracle,
    MonteCarloOracle,
    RRStaticOracle,
    ca_greedy,
    cs_greedy,
    exhaustive_optimum,
    TIEngine,
    run_adaptive_campaign,
    theorem2_bound,
    theorem3_bound,
    tightness_instance,
)
from repro.api import (
    EngineSpec,
    AlgorithmDef,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
    solve,
    AllocationSession,
)
from repro.experiments import (
    ExperimentConfig,
    GridSpec,
    build_dataset,
    build_edge_list_dataset,
    register_edge_list_dataset,
    run_grid,
)

__version__ = "1.2.0"

__all__ = [
    "ReproError",
    "GraphError",
    "TopicModelError",
    "InstanceError",
    "AllocationError",
    "SpecError",
    "EstimationError",
    "ConvergenceError",
    "WorkerCrashError",
    "PoolDegradedError",
    "CellTimeoutError",
    "FaultInjectedError",
    "ServeError",
    "FaultPlan",
    "FaultRule",
    "fault_plan",
    "DiGraph",
    "pagerank",
    "compute_stats",
    "ingest_cached",
    "ingest_edge_list",
    "load_edge_list",
    "save_edge_list",
    "TopicDistribution",
    "TICModel",
    "weighted_cascade",
    "random_tic_model",
    "pure_competition_ads",
    "simulate_cascade",
    "simulate_competitive_cascades",
    "estimate_competitive_revenue",
    "estimate_spread",
    "estimate_singleton_spreads",
    "estimate_singleton_spreads_rr",
    "exact_spread",
    "RRSampler",
    "RRCollection",
    "sample_size",
    "KPTEstimator",
    "resolve_kernel",
    "SamplerBackend",
    "ParallelBackend",
    "SharedGraphPool",
    "INCENTIVE_MODELS",
    "compute_incentives",
    "Advertiser",
    "RMInstance",
    "Allocation",
    "AllocationResult",
    "ExactOracle",
    "MonteCarloOracle",
    "RRStaticOracle",
    "ca_greedy",
    "cs_greedy",
    "exhaustive_optimum",
    "TIEngine",
    "run_adaptive_campaign",
    "theorem2_bound",
    "theorem3_bound",
    "tightness_instance",
    "EngineSpec",
    "AlgorithmDef",
    "algorithm_names",
    "get_algorithm",
    "register_algorithm",
    "unregister_algorithm",
    "solve",
    "AllocationSession",
    "ExperimentConfig",
    "GridSpec",
    "build_dataset",
    "build_edge_list_dataset",
    "register_edge_list_dataset",
    "run_grid",
    "__version__",
]
