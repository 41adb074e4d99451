"""Tunables of the experiment suite.

The paper runs with ε = 0.1 (quality) / 0.3 (scalability) on a 264 GB
server with C-level RR sampling.  The pure-Python reproduction keeps the
same algorithmic structure but works on scaled-down synthetic analogs,
so the defaults here trade estimator tightness for wall-clock sanity:
larger ε, a per-ad θ cap, and singleton spreads priced by a shared RR
sample instead of 5 000 Monte-Carlo runs (see the opening of
docs/EXPERIMENTS.md and docs/ARCHITECTURE.md §5).  Every knob
is recorded in the emitted reports — and, compiled into the resolved
``EngineSpec``, in every grid manifest row — so ``docs/EXPERIMENTS.md``
can state precisely what was run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro._checks import check_choice
from repro.errors import SpecError

OPT_LOWER_MODES = ("singleton", "kpt")
GRID_MODES = ("paper", "quick")


@dataclass(frozen=True)
class ExperimentConfig:
    """One bundle of estimator / sweep settings."""

    # Estimation accuracy (Eq. 8).
    eps: float = 0.3
    ell: float = 0.5
    theta_cap: int = 4_000
    # "singleton" prices OPT_s lower bounds from the dataset's singleton
    # spreads (free, always valid); "kpt" runs TIM's estimator.
    opt_lower_mode: str = "singleton"
    kpt_max_samples: int = 2_000
    # Singleton-spread pricing for incentives.
    singleton_rr_samples: int = 8_000
    # Window for TI-CSRM in scalability runs (Fig. 5 uses w = 5000 on the
    # paper's graphs; scaled with our graphs).
    scalability_window: int = 500
    # Sweep resolution: "paper" uses the full α grids, "quick" a subset.
    grid_mode: str = "quick"
    # Base RNG seed for everything derived from this config.
    seed: int = 7
    # RR sampler worker processes (docs/ARCHITECTURE.md §3): 0 or 1 is
    # the serial sampler, bit-identical to the bare RRSampler; k >= 2
    # fans batches over a k-worker shared-memory pool.
    workers: int = 0
    # RAM budget (bytes) per shared RR store; 0 = unbounded.  Past it
    # the store's member array spills to a temp-file memmap
    # (docs/ARCHITECTURE.md §2), keeping real-crawl grids inside a
    # declared memory envelope.
    rr_bytes_budget: int = 0
    # Engine storage knob (docs/ARCHITECTURE.md §6): share_samples
    # stores probability-identical ads' RR sets once.  It compiles into
    # the EngineSpec, so grid specs can pin it.
    share_samples: bool = False

    def __post_init__(self) -> None:
        """Refuse unknown experiment modes at construction."""
        check_choice(
            self.opt_lower_mode, "opt_lower_mode", OPT_LOWER_MODES, error=SpecError
        )
        check_choice(self.grid_mode, "grid_mode", GRID_MODES, error=SpecError)

    def quick(self) -> "ExperimentConfig":
        """A cheaper copy for smoke tests."""
        return replace(self, theta_cap=1_000, singleton_rr_samples=2_000, grid_mode="quick")

    def engine_spec(self, *, opt_lower, window=None, seed=None):
        """Compile this config into an :class:`~repro.api.spec.EngineSpec`.

        *opt_lower* must be resolved by the caller (the ``"singleton"``
        mode needs dataset spreads the config cannot see); *window* and
        *seed* are per-run values (``seed=None`` falls back to the
        config's seed).  This is the one place experiment settings turn
        into engine settings — harness, grid runner and CLI all call it.
        """
        from repro.api.spec import EngineSpec

        return EngineSpec(
            eps=self.eps,
            ell=self.ell,
            window=window,
            theta_cap=self.theta_cap,
            opt_lower=opt_lower,
            kpt_max_samples=self.kpt_max_samples,
            share_samples=self.share_samples,
            workers=self.workers or None,
            rr_bytes_budget=self.rr_bytes_budget or None,
            seed=self.seed if seed is None else int(seed),
        )

    def alphas(self, model_name: str, dataset_name: str) -> tuple[float, ...]:
        """The α grid for one (incentive model, dataset) cell of Fig. 2/3.

        The synthetic analogs have different absolute spread scales than
        the crawled graphs, so the grids below are re-centred to put seed
        costs in the same *relative* regime as the paper's (a 10–40%
        share of advertiser payments, where cost-sensitivity matters);
        unknown datasets fall back to the paper's literal grids.
        """
        grid = None
        for prefix, grids in ANALOG_ALPHA_GRIDS.items():
            if dataset_name.startswith(prefix):
                grid = grids[model_name]
                break
        if grid is None:
            from repro.incentives.models import INCENTIVE_MODELS

            model = INCENTIVE_MODELS[model_name]
            grid = (
                model.paper_alphas_epinions
                if "epinions" in dataset_name
                else model.paper_alphas_flixster
            )
        if self.grid_mode == "paper":
            return grid
        # quick: endpoints plus midpoint.
        return (grid[0], grid[len(grid) // 2], grid[-1])


# α grids for the synthetic analogs (see ExperimentConfig.alphas).
# Superlinear grids are capped so that the costliest influencer stays
# affordable (c^max_i = α·σ_max² ≲ half the smallest budget), honouring
# the paper's non-degeneracy assumption that no single incentive exceeds
# any advertiser's budget (Section 2).
_QUALITY_GRIDS = {
    "linear": (0.5, 1.0, 1.5, 2.0, 2.5),
    "constant": (1.0, 2.0, 3.0, 4.0, 5.0),
    "sublinear": (2.0, 4.0, 6.0, 8.0, 10.0),
    "superlinear": (0.004, 0.008, 0.012, 0.016, 0.02),
}
ANALOG_ALPHA_GRIDS: dict[str, dict[str, tuple[float, ...]]] = {
    "flixster_syn": {**_QUALITY_GRIDS, "superlinear": (0.01, 0.02, 0.03, 0.04, 0.05)},
    "epinions_syn": _QUALITY_GRIDS,
    "dblp_syn": _QUALITY_GRIDS,
    "livejournal_syn": _QUALITY_GRIDS,
}

DEFAULT_CONFIG = ExperimentConfig()
