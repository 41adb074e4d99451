"""Ablation: estimator accuracy ε vs revenue, θ, time and memory.

Design-choice ablation of the ε that sizes θ (docs/ARCHITECTURE.md §5):
Theorem 4 predicts an additive revenue loss linear in ε while Eq. 8
makes the RR sample size (hence memory and time) shrink as 1/ε².  The sweep runs on the EPINIONS
analog (whose larger OPT lower bounds keep the honest ``L(s, ε)`` below
the raised cap, so ε — not the cap — controls θ).  The paper itself sits
at ε = 0.1 (quality) and ε = 0.3 (scalability) on this trade-off.
"""

from repro.experiments.figures import run_ablation_epsilon
from repro.experiments.reporting import format_table, save_report

from benchmarks.conftest import run_once


def test_ablation_epsilon(benchmark, epinions, bench_config):
    rows = run_once(
        benchmark,
        run_ablation_epsilon,
        epinions,
        bench_config,
        eps_values=(0.5, 1.0, 2.0, 4.0),
        theta_cap=30_000,
    )
    text = format_table(rows)
    print("\n== Ablation: epsilon vs revenue/theta/time (epinions_syn) ==\n" + text)
    save_report("ablation_epsilon", text)

    thetas = [r["theta_total"] for r in rows]
    # Sample sizes shrink monotonically in eps...
    assert thetas == sorted(thetas, reverse=True)
    # ...and strictly overall once the cap stops binding.
    assert thetas[-1] < thetas[0]
    # Memory follows theta.
    memories = [r["memory_mb"] for r in rows]
    assert memories == sorted(memories, reverse=True)
