"""Experiment harness: synthetic analog datasets and per-figure runners."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import (
    Dataset,
    DATASET_BUILDERS,
    PROB_MODELS,
    build_dataset,
    build_edge_list_dataset,
    clear_dataset_cache,
    register_edge_list_dataset,
    unregister_dataset,
)
from repro.experiments.grid import (
    GridCell,
    GridSpec,
    default_manifest_path,
    grid_table_rows,
    load_manifest,
    run_grid,
)
from repro.experiments.harness import run_algorithm, ALGORITHMS
from repro.experiments.figures import (
    run_alpha_sweep,
    run_figure4,
    run_figure5_advertisers,
    run_figure5_budgets,
    figure5_grid_spec,
    run_diagnostics,
    run_ablation_epsilon,
)
from repro.experiments.tables import table1_rows, table2_rows, table3_rows
from repro.experiments.reporting import format_table, save_report, series_text

__all__ = [
    "ExperimentConfig",
    "Dataset",
    "DATASET_BUILDERS",
    "PROB_MODELS",
    "build_dataset",
    "build_edge_list_dataset",
    "clear_dataset_cache",
    "register_edge_list_dataset",
    "unregister_dataset",
    "GridCell",
    "GridSpec",
    "default_manifest_path",
    "grid_table_rows",
    "load_manifest",
    "run_grid",
    "figure5_grid_spec",
    "run_algorithm",
    "ALGORITHMS",
    "run_alpha_sweep",
    "run_figure4",
    "run_figure5_advertisers",
    "run_figure5_budgets",
    "run_diagnostics",
    "run_ablation_epsilon",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "format_table",
    "save_report",
    "series_text",
]
