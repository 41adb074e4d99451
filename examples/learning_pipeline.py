#!/usr/bin/env python
"""The TIC learning pipeline: from cascade logs to campaign allocation.

The paper's FLIXSTER experiments run on influence probabilities *learned*
from propagation logs (Barbieri et al.'s topic-aware MLE).  This example
exercises that full pipeline on synthetic data:

1. fix a ground-truth TIC model on a graph;
2. simulate a log of timestamped cascades for a catalogue of items;
3. re-estimate the per-topic arc probabilities from the log alone;
4. allocate a new ad campaign with TI-CSRM under the *learned* model and
   compare against the allocation under the *true* model.

Run with:  python examples/learning_pipeline.py
"""

import numpy as np

import repro
from repro.graph.generators import powerlaw_configuration
from repro.topics.distribution import peaked_distribution, random_distribution
from repro.topics.learning import estimate_tic_model, generate_cascade_log


def allocate(graph, ad_probs, seed):
    """Build a 2-ad instance from probability vectors and run TI-CSRM."""
    spreads = [
        repro.estimate_singleton_spreads_rr(graph, p, n_samples=3000, rng=seed)
        for p in ad_probs
    ]
    advertisers = [
        repro.Advertiser(index=i, cpe=1.5, budget=5.0 * 1.5 * float(s.max()))
        for i, s in enumerate(spreads)
    ]
    incentives = [repro.compute_incentives(s, "linear", 1.0) for s in spreads]
    instance = repro.RMInstance(graph, advertisers, ad_probs, incentives)
    spec = repro.EngineSpec(
        eps=0.5,
        theta_cap=1500,
        opt_lower=[float(s.max()) for s in spreads],
        seed=seed,
    )
    return repro.solve(instance, "TI-CSRM", spec)


def main() -> None:
    seed = 21
    n_topics = 4
    graph = powerlaw_configuration(600, mean_degree=6.0, seed=seed)
    truth = repro.random_tic_model(
        graph, n_topics, seed=seed, levels=(0.5, 0.2, 0.05)
    )
    print(f"graph: {graph.n} users, {graph.m} arcs; {n_topics} latent topics")

    # 2. A training log: 60 items with random topic mixtures, 40 cascades each.
    items = [random_distribution(n_topics, seed=seed + k) for k in range(60)]
    log = generate_cascade_log(
        graph, truth, items, cascades_per_item=40, seeds_per_cascade=5, rng=seed
    )
    activations = int(np.mean([(t >= 0).sum() for t in log.traces]))
    print(f"training log: {len(log)} cascades, ~{activations} activations each")

    # 3. Learn the tensor back.
    learned = estimate_tic_model(log, n_topics, smoothing=0.5)
    exposed = truth.tensor > 0
    corr = np.corrcoef(truth.tensor.ravel(), learned.tensor.ravel())[0, 1]
    print(f"learned-vs-true per-topic arc probability correlation: {corr:.3f}")

    # 4. Allocate a fresh campaign under both models.
    campaign = [peaked_distribution(n_topics, 0), peaked_distribution(n_topics, 1)]
    true_probs = [truth.ad_probabilities(g) for g in campaign]
    learned_probs = [learned.ad_probabilities(g) for g in campaign]

    res_true = allocate(graph, true_probs, seed)
    res_learned = allocate(graph, learned_probs, seed)
    print(f"\nallocation planned with true model:    {res_true.summary()}")
    print(f"allocation planned with learned model: {res_learned.summary()}")

    # The metric that matters: how do both plans perform under the TRUE
    # propagation model?
    def true_value(result):
        total = 0.0
        for i, seeds in enumerate(result.allocation.seed_sets()):
            if seeds:
                total += 1.5 * repro.estimate_spread(
                    graph, true_probs[i], seeds, n_runs=300, rng=seed
                )
        return total

    v_true = true_value(res_true)
    v_learned = true_value(res_learned)
    print(
        f"\nrealized revenue under the true model: plan-with-truth {v_true:.1f} "
        f"vs plan-with-learned {v_learned:.1f} "
        f"({100 * (v_learned / max(v_true, 1e-9) - 1):+.1f}%)"
    )


if __name__ == "__main__":
    main()
