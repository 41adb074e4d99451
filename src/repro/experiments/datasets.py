"""Datasets: synthetic analogs of the paper's four graphs, plus real
edge-list ingestion.

Real FLIXSTER/EPINIONS/DBLP/LIVEJOURNAL crawls are unavailable offline,
so each builder synthesizes a scaled-down graph from the same structural
family and attaches the same probability model the paper used on the
original (the opening of docs/EXPERIMENTS.md discusses why this
preserves the comparisons).
When a real SNAP-format crawl *is* available, :func:`build_edge_list_dataset`
ingests it through :mod:`repro.graph.io` and attaches one of the same
probability models by name (``wc`` / ``tic`` / ``trivalency``), and
:func:`register_edge_list_dataset` makes it a first-class named dataset
next to the analogs:

==================  ===========================  =======================
analog              generator                    probabilities
==================  ===========================  =======================
flixster_syn        power-law configuration      learned-style TIC, L=10
epinions_syn        power-law configuration      Weighted Cascade, L=1
dblp_syn            preferential attachment,     Weighted Cascade
                    bidirected (undirected)
livejournal_syn     R-MAT / Kronecker            Weighted Cascade
==================  ===========================  =======================

Budgets and CPEs follow Table 2's regime rescaled to the analog's spread
magnitudes: CPEs in {1, 1.5, 2} for the quality datasets, 1 for the
scalability datasets; budgets drawn so every ad seats tens of seeds and
the total seed count stays well below ``n``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro._rng import as_generator
from repro.errors import InstanceError
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    kronecker_like,
    powerlaw_configuration,
    preferential_attachment,
)
from repro.diffusion.montecarlo import degree_proxy_spreads, estimate_singleton_spreads_rr
from repro.incentives.models import compute_incentives
from repro.topics.distribution import TopicDistribution, pure_competition_ads, single_topic
from repro.topics.edge_probs import random_tic_model, trivalency, weighted_cascade_capped
from repro.core.ads import Advertiser
from repro.core.instance import RMInstance


@dataclass
class Dataset:
    """A built analog: graph, per-ad probabilities, prices and spreads."""

    name: str
    graph: DiGraph
    graph_type: str
    gammas: list[TopicDistribution]
    ad_probs: list[np.ndarray]
    cpes: list[float]
    budgets: list[float]
    # singleton_spreads[i][u] ≈ σ_i({u}); shared arrays for ads with
    # identical probability vectors.
    singleton_spreads: list[np.ndarray]
    spread_source: str
    meta: dict = field(default_factory=dict)

    @property
    def h(self) -> int:
        """Number of advertisers in the marketplace."""
        return len(self.cpes)

    def build_instance(
        self,
        incentive_model: str = "linear",
        alpha: float = 0.2,
        h: int | None = None,
        budget_override: float | None = None,
        cpe_override: float | None = None,
    ) -> RMInstance:
        """Materialize an :class:`RMInstance` for one experimental cell.

        *h* truncates/extends the marketplace by cycling the built ads
        (the Fig. 5 sweep varies ``h`` with everything else fixed);
        *budget_override* pins every budget (the Fig. 5 budget sweep);
        *cpe_override* pins every cost-per-engagement (the grid runner's
        CPE axis).
        """
        h = self.h if h is None else int(h)
        if h < 1:
            raise InstanceError(f"h must be >= 1, got {h}")
        advertisers: list[Advertiser] = []
        probs: list[np.ndarray] = []
        incentives: list[np.ndarray] = []
        for i in range(h):
            src = i % self.h
            budget = budget_override if budget_override is not None else self.budgets[src]
            cpe = cpe_override if cpe_override is not None else self.cpes[src]
            advertisers.append(
                Advertiser(index=i, cpe=float(cpe), budget=float(budget))
            )
            probs.append(self.ad_probs[src])
            incentives.append(
                compute_incentives(self.singleton_spreads[src], incentive_model, alpha)
            )
        return RMInstance(self.graph, advertisers, probs, incentives)

    def max_singleton_spread(self, i: int) -> float:
        """``max_u σ_i({u})`` — a free lower bound for ``OPT_s`` (s ≥ 1)."""
        return float(self.singleton_spreads[i % self.h].max())

    def opt_lower_bounds(self, h: int | None = None) -> list[float]:
        """Per-ad OPT lower bounds for the TI engines."""
        h = self.h if h is None else int(h)
        return [self.max_singleton_spread(i) for i in range(h)]


def _payment_scaled_budgets(
    spreads: list[np.ndarray],
    cpes: list[float],
    rng: np.random.Generator,
    lo: float,
    hi: float,
) -> list[float]:
    """Budgets a few multiples of the top singleton payment:
    ``B_i = cpe_i · max_u σ_i({u}) · U[lo, hi]``.

    This reproduces the paper's *relative* regime — budgets comfortably
    exceed any single seed's payment (no advertiser is priced out of its
    best influencer, the non-degeneracy assumption of Section 2) yet bind
    after tens of seeds, well before the seed pool is exhausted (the
    Table 2 regime: "total seeds required for all ads to meet their
    budgets is less than n").  The U[lo, hi] multiplier reproduces
    Table 2's ~2–3× budget spread across advertisers.
    """
    return [
        round(cpe * float(spread.max()) * rng.uniform(lo, hi), 1)
        for spread, cpe in zip(spreads, cpes)
    ]


def _check_ad_count(h) -> None:
    """Refuse a marketplace without advertisers before building anything."""
    if h < 1:
        raise InstanceError(f"h must be >= 1, got {h}")


def build_flixster_syn(
    n: int = 2_000,
    h: int = 10,
    n_topics: int = 10,
    seed: int = 101,
    singleton_rr_samples: int = 8_000,
) -> Dataset:
    """FLIXSTER analog: heavy-tailed digraph + learned-style TIC (L=10).

    Ads come in pure-competition pairs (h=10 from 5 distributions, each
    0.91 on one topic and 0.01 on the rest) exactly as in Section 5.
    """
    _check_ad_count(h)
    rng = as_generator(seed)
    graph = powerlaw_configuration(n, mean_degree=8.0, exponent=2.1, seed=rng)
    tic = random_tic_model(
        graph, n_topics, seed=rng, levels=(0.5, 0.2, 0.05), affinity_concentration=0.15
    )
    gammas = pure_competition_ads(h, n_topics, seed=rng)
    unique: dict[TopicDistribution, tuple[np.ndarray, np.ndarray]] = {}
    ad_probs: list[np.ndarray] = []
    spreads: list[np.ndarray] = []
    for gamma in gammas:
        if gamma not in unique:
            probs = tic.ad_probabilities(gamma)
            spread = estimate_singleton_spreads_rr(
                graph, probs, n_samples=singleton_rr_samples, rng=rng
            )
            unique[gamma] = (probs, spread)
        probs, spread = unique[gamma]
        ad_probs.append(probs)
        spreads.append(spread)
    cpes = [float(rng.choice([1.0, 1.5, 2.0])) for _ in range(h)]
    budgets = _payment_scaled_budgets(spreads, cpes, rng, lo=3.0, hi=8.0)
    return Dataset(
        name="flixster_syn",
        graph=graph,
        graph_type="directed",
        gammas=gammas,
        ad_probs=ad_probs,
        cpes=cpes,
        budgets=budgets,
        singleton_spreads=spreads,
        spread_source=f"rr({singleton_rr_samples})",
        meta={"n_topics": n_topics, "paper_counterpart": "FLIXSTER 30K/425K"},
    )


def build_epinions_syn(
    n: int = 3_000,
    h: int = 10,
    seed: int = 202,
    singleton_rr_samples: int = 8_000,
) -> Dataset:
    """EPINIONS analog: trust-graph shape + Weighted Cascade (L=1).

    All ads share the WC probabilities, i.e. full pure competition.
    """
    _check_ad_count(h)
    rng = as_generator(seed)
    graph = powerlaw_configuration(n, mean_degree=6.7, exponent=2.2, seed=rng)
    probs = weighted_cascade_capped(graph, cap=0.2)
    spread = estimate_singleton_spreads_rr(
        graph, probs, n_samples=singleton_rr_samples, rng=rng
    )
    gammas = [single_topic(1, 0) for _ in range(h)]
    cpes = [float(rng.choice([1.0, 1.5, 2.0])) for _ in range(h)]
    spreads = [spread] * h
    budgets = _payment_scaled_budgets(spreads, cpes, rng, lo=3.0, hi=8.0)
    return Dataset(
        name="epinions_syn",
        graph=graph,
        graph_type="directed",
        gammas=gammas,
        ad_probs=[probs] * h,
        cpes=cpes,
        budgets=budgets,
        singleton_spreads=spreads,
        spread_source=f"rr({singleton_rr_samples})",
        meta={"paper_counterpart": "EPINIONS 76K/509K"},
    )


def build_dblp_syn(n: int = 6_000, h: int = 20, seed: int = 303) -> Dataset:
    """DBLP analog: bidirected preferential attachment + WC; degree-proxy
    spreads (the paper's choice for the scalability datasets)."""
    _check_ad_count(h)
    rng = as_generator(seed)
    graph = preferential_attachment(n, m_per_node=3, seed=rng).to_bidirected()
    probs = weighted_cascade_capped(graph, cap=0.3)
    spread = degree_proxy_spreads(graph)
    gammas = [single_topic(1, 0) for _ in range(h)]
    cpes = [1.0] * h
    spreads = [spread] * h
    budgets = _payment_scaled_budgets(spreads, cpes, rng, lo=2.5, hi=6.0)
    return Dataset(
        name="dblp_syn",
        graph=graph,
        graph_type="undirected",
        gammas=gammas,
        ad_probs=[probs] * h,
        cpes=cpes,
        budgets=budgets,
        singleton_spreads=spreads,
        spread_source="out-degree proxy",
        meta={"paper_counterpart": "DBLP 317K/1.05M"},
    )


def build_livejournal_syn(scale: int = 13, h: int = 20, seed: int = 404) -> Dataset:
    """LIVEJOURNAL analog: R-MAT digraph + WC; degree-proxy spreads."""
    _check_ad_count(h)
    rng = as_generator(seed)
    graph = kronecker_like(scale, edge_factor=7, seed=rng)
    probs = weighted_cascade_capped(graph, cap=0.3)
    spread = degree_proxy_spreads(graph)
    gammas = [single_topic(1, 0) for _ in range(h)]
    cpes = [1.0] * h
    spreads = [spread] * h
    budgets = _payment_scaled_budgets(spreads, cpes, rng, lo=2.5, hi=6.0)
    return Dataset(
        name="livejournal_syn",
        graph=graph,
        graph_type="directed",
        gammas=gammas,
        ad_probs=[probs] * h,
        cpes=cpes,
        budgets=budgets,
        singleton_spreads=spreads,
        spread_source="out-degree proxy",
        meta={"paper_counterpart": "LIVEJOURNAL 4.8M/69M"},
    )


def build_edge_list_dataset(
    path: str,
    *,
    name: str | None = None,
    prob_model: str = "wc",
    h: int = 10,
    seed: int = 707,
    wc_cap: float = 0.3,
    n_topics: int = 10,
    trivalency_levels: tuple[float, ...] = (0.1, 0.01, 0.001),
    cpe_choices: tuple[float, ...] = (1.0,),
    spread_mode: str = "degree",
    singleton_rr_samples: int = 4_000,
    budget_lo: float = 2.5,
    budget_hi: float = 6.0,
    bidirect: bool = False,
    cache: bool | str = False,
    n: int | None = None,
    remap_ids: bool = True,
    drop_self_loops: bool = True,
    dedupe: bool = True,
) -> Dataset:
    """Build a :class:`Dataset` from a real (SNAP-style) edge-list file.

    This is the ingestion path for the paper's actual crawls: the file is
    streamed through :func:`repro.graph.io.ingest_edge_list` (non-contiguous
    ids remapped, self-loops dropped, duplicates collapsed; ``cache=True``
    adds an ``.npz`` parse cache next to the file), then one of the
    paper's probability models is attached by name:

    * ``"wc"`` — Weighted Cascade capped at *wc_cap* (EPINIONS/DBLP/
      LIVEJOURNAL treatment; all ads in pure competition);
    * ``"tic"`` — a synthesized TIC tensor with *n_topics* topics and
      pure-competition topic distributions (FLIXSTER treatment);
    * ``"trivalency"`` — uniform draws from *trivalency_levels*.

    *spread_mode* prices singleton spreads by ``"degree"`` proxy (cheap,
    the paper's choice for scalability datasets) or ``"rr"`` estimation;
    *bidirect* mirrors every arc first (the paper's DBLP treatment).
    Budgets follow the same payment-scaled regime as the synthetic
    analogs.
    """
    from repro.graph.io import ingest_cached, ingest_edge_list

    _check_ad_count(h)
    if prob_model not in PROB_MODELS:
        raise InstanceError(
            f"unknown prob_model {prob_model!r}; options: {sorted(PROB_MODELS)}"
        )
    if spread_mode not in ("degree", "rr"):
        raise InstanceError(
            f"unknown spread_mode {spread_mode!r}; options: ['degree', 'rr']"
        )
    rng = as_generator(seed)
    ingest_kwargs = dict(
        n=n, remap_ids=remap_ids, drop_self_loops=drop_self_loops, dedupe=dedupe
    )
    if cache:
        cache_path = cache if isinstance(cache, str) else None
        result = ingest_cached(path, cache_path, **ingest_kwargs)
    else:
        result = ingest_edge_list(path, **ingest_kwargs)
    graph = result.graph
    graph_type = "directed"
    if bidirect:
        graph = graph.to_bidirected()
        graph_type = "undirected"

    def _spread(probs: np.ndarray) -> np.ndarray:
        if spread_mode == "rr":
            return estimate_singleton_spreads_rr(
                graph, probs, n_samples=singleton_rr_samples, rng=rng
            )
        return degree_proxy_spreads(graph)

    if prob_model == "tic":
        tic = random_tic_model(graph, n_topics, seed=rng)
        gammas = pure_competition_ads(h, n_topics, seed=rng)
        unique: dict[TopicDistribution, tuple[np.ndarray, np.ndarray]] = {}
        ad_probs, spreads = [], []
        for gamma in gammas:
            if gamma not in unique:
                probs = tic.ad_probabilities(gamma)
                unique[gamma] = (probs, _spread(probs))
            probs, spread = unique[gamma]
            ad_probs.append(probs)
            spreads.append(spread)
    else:
        if prob_model == "wc":
            probs = weighted_cascade_capped(graph, cap=wc_cap)
        else:  # trivalency
            probs = trivalency(graph, seed=rng, levels=trivalency_levels)
        spread = _spread(probs)
        gammas = [single_topic(1, 0) for _ in range(h)]
        ad_probs = [probs] * h
        spreads = [spread] * h
    cpes = [float(rng.choice(list(cpe_choices))) for _ in range(h)]
    budgets = _payment_scaled_budgets(spreads, cpes, rng, lo=budget_lo, hi=budget_hi)
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(
        name=name,
        graph=graph,
        graph_type=graph_type,
        gammas=gammas,
        ad_probs=ad_probs,
        cpes=cpes,
        budgets=budgets,
        singleton_spreads=spreads,
        spread_source=(
            f"rr({singleton_rr_samples})" if spread_mode == "rr" else "out-degree proxy"
        ),
        meta={
            "source": path,
            "prob_model": prob_model,
            "raw_edges": result.raw_edges,
            "self_loops_dropped": result.self_loops_dropped,
            "duplicates_dropped": result.duplicates_dropped,
            "remapped": result.original_ids is not None,
        },
    )


#: Probability models attachable to ingested edge lists, by name.
PROB_MODELS = ("wc", "tic", "trivalency")

DATASET_BUILDERS: dict[str, Callable[..., Dataset]] = {
    "flixster_syn": build_flixster_syn,
    "epinions_syn": build_epinions_syn,
    "dblp_syn": build_dblp_syn,
    "livejournal_syn": build_livejournal_syn,
}

#: The always-available synthetic analogs (never unregisterable).
_BUILTIN_DATASETS = frozenset(DATASET_BUILDERS)


def register_edge_list_dataset(name: str, path: str, **defaults) -> None:
    """Register an ingested edge-list file as a first-class named dataset.

    Afterwards ``build_dataset(name, ...)`` (and therefore the CLI and the
    grid runner) builds it exactly like a synthetic analog; call-site
    keyword arguments override *defaults*.  Re-registering an existing
    name replaces it, except the built-in synthetic analogs, which are
    protected.
    """
    if name in _BUILTIN_DATASETS:
        raise InstanceError(f"cannot shadow built-in dataset {name!r}")

    def _builder(**kwargs) -> Dataset:
        merged = {**defaults, **kwargs}
        merged.setdefault("name", name)
        return build_edge_list_dataset(path, **merged)

    DATASET_BUILDERS[name] = _builder


def unregister_dataset(name: str) -> None:
    """Remove a registered edge-list dataset (built-ins are protected)."""
    if name in _BUILTIN_DATASETS:
        raise InstanceError(f"cannot unregister built-in dataset {name!r}")
    DATASET_BUILDERS.pop(name, None)
    for key in [k for k in _CACHE if k[0] == name]:
        del _CACHE[key]


_CACHE: dict[tuple, Dataset] = {}


def build_dataset(name: str, **kwargs) -> Dataset:
    """Build (or fetch from the in-process cache) a named analog dataset."""
    if name not in DATASET_BUILDERS:
        raise InstanceError(
            f"unknown dataset {name!r}; options: {sorted(DATASET_BUILDERS)}"
        )
    key = (name, tuple(sorted(kwargs.items())))
    if key not in _CACHE:
        _CACHE[key] = DATASET_BUILDERS[name](**kwargs)
    return _CACHE[key]


def forget_dataset(dataset: Dataset) -> None:
    """Drop *dataset* from the build cache; a later build makes a new one.

    Called when the dataset's last user goes away (a serve pool evicting
    its session), so the cache does not hold it for the process's life.
    """
    for key in [k for k, cached in _CACHE.items() if cached is dataset]:
        del _CACHE[key]


def clear_dataset_cache() -> None:
    """Drop all cached datasets (tests use this for isolation)."""
    _CACHE.clear()
