"""Tests for the algorithm harness and figure runners (smoke scale)."""

import pytest

from repro.errors import InstanceError
from repro.experiments.figures import (
    run_ablation_epsilon,
    run_alpha_sweep,
    run_diagnostics,
    run_figure4,
    run_figure5_advertisers,
    run_figure5_budgets,
)
from repro.experiments.harness import (
    ALGORITHMS,
    evaluate_allocation_mc,
    run_algorithm,
)


class TestRunAlgorithm:
    def test_all_four_algorithms_run(self, quick_dataset, quick_config):
        inst = quick_dataset.build_instance("linear", 1.0)
        for name in ALGORITHMS:
            result = run_algorithm(name, quick_dataset, inst, quick_config)
            assert result.algorithm.startswith(name.split("(")[0])
            assert result.total_revenue >= 0.0

    def test_unknown_algorithm_rejected(self, quick_dataset, quick_config):
        inst = quick_dataset.build_instance("linear", 1.0)
        with pytest.raises(InstanceError):
            run_algorithm("TI-MAGIC", quick_dataset, inst, quick_config)

    def test_mc_revalidation_same_order_of_magnitude(self, quick_dataset, quick_config):
        """With theta capped far below L(s, eps) the adaptive selection
        inflates the engine's own estimate (winner's curse); the MC
        re-estimate must stay the same order of magnitude and below the
        optimistic estimate."""
        inst = quick_dataset.build_instance("linear", 1.0)
        result = run_algorithm("TI-CSRM", quick_dataset, inst, quick_config)
        mc = evaluate_allocation_mc(inst, result, n_runs=150, seed=1)
        if result.total_revenue > 0:
            assert mc <= 1.2 * result.total_revenue
            assert mc >= result.total_revenue / 6.0


class TestFigureRunners:
    def test_alpha_sweep_rows(self, quick_dataset, quick_config):
        rows = run_alpha_sweep(
            quick_dataset,
            quick_config,
            incentive_models=("linear",),
            algorithms=("TI-CSRM", "TI-CARM"),
        )
        alphas = quick_config.alphas("linear", quick_dataset.name)
        assert len(rows) == len(alphas) * 2
        for row in rows:
            assert row["revenue"] >= 0
            assert row["seed_cost"] >= 0
            assert row["algorithm"] in ("TI-CSRM", "TI-CARM")

    def test_constant_model_equalizes(self, quick_dataset, quick_config):
        rows = run_alpha_sweep(
            quick_dataset,
            quick_config,
            incentive_models=("constant",),
            algorithms=("TI-CSRM", "TI-CARM"),
        )
        by_alpha = {}
        for row in rows:
            by_alpha.setdefault(row["alpha"], {})[row["algorithm"]] = row["revenue"]
        for pair in by_alpha.values():
            assert pair["TI-CSRM"] == pytest.approx(pair["TI-CARM"])

    def test_figure4_rows(self, quick_dataset, quick_config):
        rows = run_figure4(
            quick_dataset, quick_config, alphas=(1.0,), windows=(1, None)
        )
        assert len(rows) == 2
        assert {r["window"] for r in rows} == {1, "n"}

    def test_figure5_advertisers(self, quick_dataset, quick_config):
        rows = run_figure5_advertisers(
            quick_dataset, quick_config, h_values=(1, 3), budget=200.0
        )
        assert len(rows) == 4  # 2 h-values x 2 algorithms
        assert all(row["memory_mb"] > 0 for row in rows)

    def test_figure5_budgets(self, quick_dataset, quick_config):
        rows = run_figure5_budgets(
            quick_dataset, quick_config, budgets=(150.0, 300.0), h=2
        )
        assert len(rows) == 4
        assert {row["budget"] for row in rows} == {150.0, 300.0}

    def test_diagnostics(self, quick_dataset, quick_config):
        rows = run_diagnostics(quick_dataset, quick_config, alpha=1.0)
        assert rows
        for row in rows:
            assert row["avg_seed_cost"] >= 0
            assert row["avg_marginal_revenue"] >= 0

    def test_ablation_epsilon_theta_shrinks(self, quick_dataset, quick_config):
        rows = run_ablation_epsilon(
            quick_dataset, quick_config, eps_values=(0.4, 1.2), alpha=1.0,
            theta_cap=3_000,
        )
        assert len(rows) == 2
        # Larger eps needs no more RR sets than smaller eps.
        assert rows[1]["theta_total"] <= rows[0]["theta_total"]
