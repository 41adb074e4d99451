"""Adaptive multi-window campaigns (paper future work iv).

Section 7's last open direction: "study the problem in an online
adaptive setting where the partial results of the campaign can be taken
into account while deciding the next moves."  This module implements
the natural batched version of that setting:

* a campaign spans ``T`` time windows with one advertiser budget pool;
* at each window the host plans seeds with TI-CSRM (or any configured
  engine) against the *remaining* budgets, using the estimated payment
  for feasibility exactly as in the one-shot problem;
* the window's cascade then actually *realizes* (simulated under the
  same TIC model); the advertiser is charged realized engagements plus
  the incentives of the seeds actually used, and the spent amount is
  deducted from its budget;
* users engaged with an ad are frozen for it — they neither re-engage
  nor qualify as future seeds for any ad (one endorsement per user, the
  matroid constraint carried across windows);
* planning in later windows excludes frozen users, so observed outcomes
  steer subsequent seeding — the "adaptivity" of the setting.

Compared with spending the whole budget in one window, adaptivity hedges
estimation error: over-performing cascades consume budget (fewer future
seeds needed), under-performing ones leave budget for corrective
seeding.  ``bench_adaptive`` measures the realized-revenue difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._rng import as_generator
from repro.errors import InstanceError
from repro.core.ads import Advertiser
from repro.core.instance import RMInstance
from repro.diffusion.simulate import simulate_cascade


@dataclass
class WindowOutcome:
    """Realized results of one campaign window."""

    window: int
    seeds_per_ad: list[list[int]]
    realized_engagements: list[int]
    realized_revenue: list[float]
    incentives_paid: list[float]
    remaining_budgets: list[float]

    @property
    def total_revenue(self) -> float:
        return float(sum(self.realized_revenue))


@dataclass
class CampaignResult:
    """Aggregate of an adaptive campaign."""

    windows: list[WindowOutcome] = field(default_factory=list)
    #: One JSON-able report per edge-update batch applied between
    #: windows (empty for a static campaign); warm campaigns carry the
    #: session's incremental-invalidation provenance here.
    mutations: list[dict] = field(default_factory=list)

    @property
    def total_revenue(self) -> float:
        return float(sum(w.total_revenue for w in self.windows))

    def revenue_per_ad(self, h: int) -> list[float]:
        totals = [0.0] * h
        for w in self.windows:
            for i in range(h):
                totals[i] += w.realized_revenue[i]
        return totals


class AdaptiveCampaign:
    """Run a multi-window incentivized campaign with feedback.

    Parameters
    ----------
    instance:
        The full-campaign RM instance; its budgets are the total pools.
    n_windows:
        Number of planning/realization rounds ``T``.
    planner_kwargs:
        Engine knobs for each window's plan (``eps``, ``theta_cap``,
        ``opt_lower``, ...) — compiled into an
        :class:`~repro.api.spec.EngineSpec` unless *spec* is given.
    budget_split:
        ``"even"`` plans each window with ``1/T`` of the remaining pool
        scaled by the windows left (i.e. remaining / windows_left), which
        spreads spend; ``"all"`` exposes the full remaining budget each
        window (greedy front-loading).
    seed:
        Master seed for planning randomness and cascade realization.
    algorithm:
        Any registered algorithm name (default TI-CSRM, the paper's
        cost-sensitive planner).
    spec:
        An explicit :class:`~repro.api.spec.EngineSpec` for the planner
        (overrides *planner_kwargs*); the per-window planner seed is
        applied on top.
    reuse_samples:
        Open one :class:`~repro.api.session.AllocationSession` for the
        whole campaign, so later windows adopt the RR sets earlier
        windows drew instead of resampling (valid: the windows share
        graph and probabilities; only budgets and the frozen mask
        change).  Warm solves store samples in shared prob-keyed
        stores, so plans differ from — but are statistically equivalent
        to — the cold per-window planner.
    edge_updates:
        Optional dynamic-graph schedule: ``edge_updates[k]`` is the
        edge-update batch (anything
        :func:`repro.graph.updates.normalize_updates` accepts) applied
        *after* window ``k`` realizes and before window ``k+1`` plans —
        the streaming setting of docs/ARCHITECTURE.md §14.  Each batch
        goes through :func:`repro.api.session.apply_edge_batch`, the
        step grid dynamic cells use too: with ``reuse_samples`` the
        session repairs its warm RR stores incrementally, and cold
        campaigns take the recompiled graph.  Both legs remap every
        ad's probabilities through the same deterministic plan, so they
        plan over identical post-update markets.  Per-batch reports
        land in :attr:`CampaignResult.mutations`.
    """

    def __init__(
        self,
        instance: RMInstance,
        n_windows: int = 3,
        planner_kwargs: dict | None = None,
        budget_split: str = "even",
        seed=None,
        algorithm: str = "TI-CSRM",
        spec=None,
        reuse_samples: bool = False,
        edge_updates=None,
    ) -> None:
        if n_windows < 1:
            raise InstanceError(f"n_windows must be >= 1, got {n_windows}")
        if budget_split not in ("even", "all"):
            raise InstanceError(f"unknown budget_split {budget_split!r}")
        self.instance = instance
        self.n_windows = int(n_windows)
        self.planner_kwargs = dict(planner_kwargs or {})
        self.budget_split = budget_split
        self.rng = as_generator(seed)
        self.algorithm = algorithm
        self.spec = spec
        self.reuse_samples = bool(reuse_samples)
        self.edge_updates = (
            [] if edge_updates is None else [list(batch or []) for batch in edge_updates]
        )
        if len(self.edge_updates) > max(self.n_windows - 1, 0):
            raise InstanceError(
                f"edge_updates has {len(self.edge_updates)} batches but a "
                f"{self.n_windows}-window campaign has only "
                f"{max(self.n_windows - 1, 0)} between-window boundaries"
            )

    def _planner_spec(self):
        from repro.api.spec import EngineSpec

        if self.spec is not None:
            return self.spec
        return EngineSpec(**self.planner_kwargs)

    def run(self) -> CampaignResult:
        """Execute all windows; returns realized outcomes."""
        from repro.api.session import AllocationSession, apply_edge_batch
        from repro.api.solve import solve

        inst = self.instance
        h, n = inst.h, inst.n
        graph = inst.graph
        probs = [np.asarray(p, dtype=np.float64) for p in inst.ad_probs]
        remaining = [inst.budget(i) for i in range(h)]
        frozen = np.zeros(n, dtype=bool)  # engaged-or-seeded users
        result = CampaignResult()
        spec = self._planner_spec()
        session = (
            AllocationSession(graph, spec=spec) if self.reuse_samples else None
        )

        try:
            for window in range(self.n_windows):
                windows_left = self.n_windows - window
                planned_budgets = [
                    rem if self.budget_split == "all" else max(rem / windows_left, 1e-9)
                    for rem in remaining
                ]
                built = self._window_instance(planned_budgets, frozen, graph, probs)
                if built is None:
                    break
                sub, sub_to_original = built
                planner_seed = int(self.rng.integers(0, 2**31 - 1))
                plan = solve(
                    sub,
                    self.algorithm,
                    spec.override(seed=planner_seed),
                    blocked=frozen.copy(),
                    session=session,
                )

                outcome = self._realize(
                    window,
                    plan.allocation.seed_sets(),
                    sub_to_original,
                    frozen,
                    remaining,
                    graph,
                    probs,
                )
                result.windows.append(outcome)
                if all(rem <= 1e-9 for rem in remaining):
                    break
                if window < len(self.edge_updates) and self.edge_updates[window]:
                    # The streaming boundary: mutate the graph before the
                    # next window plans.
                    graph, probs, report = apply_edge_batch(
                        graph, probs, self.edge_updates[window], session
                    )
                    result.mutations.append(report)
        finally:
            if session is not None:
                session.close()
        return result

    # ------------------------------------------------------------------
    def _window_instance(
        self,
        budgets: list[float],
        frozen: np.ndarray,
        graph,
        probs,
    ):
        """The remaining-market instance: frozen users are priced out.

        Frozen users are excluded from seeding via the planner's
        ``blocked`` mask (an engine-level pre-assignment, which keeps the
        Eq.-10 ``c^max_i`` term meaningful); ads whose budget cannot
        cover any remaining seed are dropped from planning (budget 0 is
        invalid for RMInstance).  Returns ``(sub_instance,
        sub_to_original)`` or ``None`` when no ad can still participate.
        """
        inst = self.instance
        advertisers = []
        sub_probs = []
        incentives = []
        sub_to_original: list[int] = []
        unfrozen = ~frozen
        if not unfrozen.any():
            return None
        for i in range(inst.h):
            cost = inst.incentives[i]
            affordable = float(cost[unfrozen].min()) <= budgets[i]
            if budgets[i] <= 0 or not affordable:
                continue
            advertisers.append(
                Advertiser(
                    index=len(advertisers),
                    cpe=inst.cpe(i),
                    budget=float(budgets[i]),
                    name=f"ad-{i}",
                )
            )
            sub_probs.append(probs[i])
            incentives.append(cost)
            sub_to_original.append(i)
        if not advertisers:
            return None
        sub = RMInstance(graph, advertisers, sub_probs, incentives)
        return sub, sub_to_original

    def _realize(
        self,
        window: int,
        sub_seed_sets: list[list[int]],
        sub_to_original: list[int],
        frozen: np.ndarray,
        remaining: list[float],
        graph,
        probs,
    ) -> WindowOutcome:
        """Simulate the window's cascades and settle payments."""
        inst = self.instance
        h = inst.h
        seeds_per_ad: list[list[int]] = [[] for _ in range(h)]
        engagements = [0] * h
        revenue = [0.0] * h
        incentives_paid = [0.0] * h
        for sub_index, seeds in enumerate(sub_seed_sets):
            seeds_per_ad[sub_to_original[sub_index]] = list(seeds)
        for i in range(h):
            seeds = seeds_per_ad[i]
            if not seeds:
                continue
            active = simulate_cascade(graph, probs[i], seeds, self.rng)
            # Frozen users never re-engage.
            active &= ~frozen
            count = int(active.sum())
            paid_incentives = inst.seeding_cost(i, seeds)
            charge = inst.cpe(i) * count + paid_incentives
            # Settlement never exceeds the remaining pool: engagements
            # beyond budget are served free (the host absorbs them), the
            # realistic treatment of a hard cap.
            charge = min(charge, remaining[i])
            engaged_revenue = max(charge - paid_incentives, 0.0)
            remaining[i] -= charge
            engagements[i] = count
            revenue[i] = engaged_revenue
            incentives_paid[i] = min(paid_incentives, charge)
            frozen[active] = True
            for u in seeds:
                frozen[u] = True
        return WindowOutcome(
            window=window,
            seeds_per_ad=seeds_per_ad,
            realized_engagements=engagements,
            realized_revenue=revenue,
            incentives_paid=incentives_paid,
            remaining_budgets=list(remaining),
        )


def run_adaptive_campaign(
    instance: RMInstance,
    n_windows: int = 3,
    planner_kwargs: dict | None = None,
    budget_split: str = "even",
    seed=None,
    algorithm: str = "TI-CSRM",
    spec=None,
    reuse_samples: bool = False,
    edge_updates=None,
) -> CampaignResult:
    """Convenience wrapper around :class:`AdaptiveCampaign`."""
    campaign = AdaptiveCampaign(
        instance,
        n_windows=n_windows,
        planner_kwargs=planner_kwargs,
        budget_split=budget_split,
        seed=seed,
        algorithm=algorithm,
        spec=spec,
        reuse_samples=reuse_samples,
        edge_updates=edge_updates,
    )
    return campaign.run()
