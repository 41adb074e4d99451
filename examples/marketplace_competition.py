#!/usr/bin/env python
"""Competition in the ad marketplace: how topical overlap shapes revenue.

The paper's partition-matroid constraint means advertisers whose ads live
in the same topical market compete for the same influencers.  This
example builds two marketplaces on the same graph —

* a *pure competition* marketplace (every pair of ads shares a peaked
  topic distribution, as in the paper's FLIXSTER setup), and
* a *segmented* marketplace (each ad owns its topic exclusively),

runs TI-CSRM on both, and shows that competition depresses per-ad
revenue while segmentation lets every ad reach its own audience.

Run with:  python examples/marketplace_competition.py
"""

import numpy as np

import repro
from repro.graph.generators import powerlaw_configuration
from repro.topics.distribution import peaked_distribution, pure_competition_ads

#: TI-CSRM's accuracy knobs for every run below; each run adds its
#: instance's OPT lower bounds and the seed as overrides.
SPEC = repro.EngineSpec(eps=0.4, theta_cap=2500)


def build_instance(graph, tic, gammas, alpha, budget_multiple, seed):
    """Price incentives and budgets for a list of ad distributions."""
    unique = {}
    ad_probs, spreads = [], []
    for gamma in gammas:
        if gamma not in unique:
            probs = tic.ad_probabilities(gamma)
            spread = repro.estimate_singleton_spreads_rr(
                graph, probs, n_samples=4000, rng=seed
            )
            unique[gamma] = (probs, spread)
        probs, spread = unique[gamma]
        ad_probs.append(probs)
        spreads.append(spread)
    advertisers = []
    incentives = []
    rng = np.random.default_rng(seed)
    for i, spread in enumerate(spreads):
        budget = 1.5 * float(spread.max()) * budget_multiple
        advertisers.append(repro.Advertiser(index=i, cpe=1.5, budget=budget))
        incentives.append(repro.compute_incentives(spread, "linear", alpha))
    instance = repro.RMInstance(graph, advertisers, ad_probs, incentives)
    opt_lower = [float(s.max()) for s in spreads]
    return instance, opt_lower


def run_marketplace(tag, graph, tic, gammas, seed):
    instance, opt_lower = build_instance(
        graph, tic, gammas, alpha=1.0, budget_multiple=4.0, seed=seed
    )
    result = repro.solve(instance, "TI-CSRM", SPEC, opt_lower=opt_lower, seed=seed)
    per_ad = [f"{r:7.1f}" for r in result.revenue_per_ad]
    print(f"{tag:>16}: total revenue {result.total_revenue:8.1f} | per ad: {per_ad}")
    return result


def main() -> None:
    seed = 11
    n_topics = 8
    graph = powerlaw_configuration(1000, mean_degree=7.0, seed=seed)
    tic = repro.random_tic_model(graph, n_topics, seed=seed)
    print(f"graph: {graph.n} users, {graph.m} arcs, {n_topics} latent topics\n")

    # Marketplace A: 6 ads in pure competition (3 contested topics).
    competitive = pure_competition_ads(6, n_topics, seed=seed)
    # Marketplace B: 6 ads, each on its own topic.
    segmented = [peaked_distribution(n_topics, z) for z in range(6)]

    res_comp = run_marketplace("pure competition", graph, tic, competitive, seed)
    res_seg = run_marketplace("segmented", graph, tic, segmented, seed)

    overlap_pairs = sum(
        1
        for i in range(6)
        for j in range(i + 1, 6)
        if competitive[i].overlap(competitive[j]) > 0.99
    )
    print(
        f"\ncompetitive marketplace has {overlap_pairs} fully-overlapping ad pairs; "
        "each pair splits one influencer pool under the disjointness constraint."
    )
    print(
        f"segmented marketplace revenue is "
        f"{100 * (res_seg.total_revenue / max(res_comp.total_revenue, 1e-9) - 1):+.1f}% "
        "vs pure competition on the same graph and budgets."
    )

    # The cleanest view of the matroid constraint: the SAME ad, alone in
    # the marketplace vs facing five clones bidding for the same topic.
    # Budgets are set large enough that the *seed pool*, not the budget,
    # is the binding resource - that is where disjointness bites.
    solo_instance, solo_lower = build_instance(
        graph, tic, competitive[:1], alpha=1.0, budget_multiple=200.0, seed=seed
    )
    solo = repro.solve(
        solo_instance, "TI-CSRM", SPEC, opt_lower=solo_lower, seed=seed
    )
    contested_instance, contested_lower = build_instance(
        graph, tic, [competitive[0]] * 6, alpha=1.0, budget_multiple=200.0, seed=seed
    )
    contested = repro.solve(
        contested_instance, "TI-CSRM", SPEC, opt_lower=contested_lower, seed=seed
    )
    drop = 100 * (1 - contested.revenue_per_ad[0] / max(solo.revenue_per_ad[0], 1e-9))
    print(
        f"\nad 0 alone in the market earns {solo.revenue_per_ad[0]:.1f}; "
        f"against 5 same-topic competitors it earns {contested.revenue_per_ad[0]:.1f} "
        f"({drop:+.1f}% drop) - competition for shared influencers is real."
    )


if __name__ == "__main__":
    main()
