"""The paper's primary contribution: the RM problem and its algorithms."""

from repro.core.ads import Advertiser
from repro.core.instance import RMInstance
from repro.core.allocation import Allocation, AllocationResult
from repro.core.independence import (
    PartitionMatroid,
    allocation_pairs_independent,
    maximal_independent_sets,
    lower_upper_rank,
)
from repro.core.oracles import (
    SpreadOracle,
    ExactOracle,
    MonteCarloOracle,
    RRStaticOracle,
)
from repro.core.greedy import ca_greedy, cs_greedy, exhaustive_optimum
from repro.core.seedsize import next_seed_size
from repro.core.ti_engine import TIEngine
from repro.core.adaptive import AdaptiveCampaign, CampaignResult, WindowOutcome, run_adaptive_campaign
from repro.core.curvature import (
    SpreadSetFunction,
    RevenueSetFunction,
    PaymentSetFunction,
    total_revenue_curvature,
    payment_curvature,
    singleton_payment_extremes,
)
from repro.core.bounds import (
    fnw_matroid_floor,
    theorem2_bound,
    theorem2_counterexample,
    theorem2_exponential_bound,
    theorem3_bound,
    theorem4_additive_deterioration,
    tightness_instance,
)

__all__ = [
    "Advertiser",
    "RMInstance",
    "Allocation",
    "AllocationResult",
    "PartitionMatroid",
    "allocation_pairs_independent",
    "maximal_independent_sets",
    "lower_upper_rank",
    "SpreadOracle",
    "ExactOracle",
    "MonteCarloOracle",
    "RRStaticOracle",
    "ca_greedy",
    "cs_greedy",
    "exhaustive_optimum",
    "next_seed_size",
    "TIEngine",
    "AdaptiveCampaign",
    "CampaignResult",
    "WindowOutcome",
    "run_adaptive_campaign",
    "SpreadSetFunction",
    "RevenueSetFunction",
    "PaymentSetFunction",
    "total_revenue_curvature",
    "payment_curvature",
    "singleton_payment_extremes",
    "fnw_matroid_floor",
    "theorem2_bound",
    "theorem2_counterexample",
    "theorem2_exponential_bound",
    "theorem3_bound",
    "theorem4_additive_deterioration",
    "tightness_instance",
]
