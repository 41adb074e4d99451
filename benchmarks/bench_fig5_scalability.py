"""Figure 5: running time vs number of advertisers and vs budget.

Paper shape on DBLP/LIVEJOURNAL (WC probabilities, cpe = 1, α = 0.2,
fully competitive marketplace):

* (a, b) runtime grows roughly linearly in h, with TI-CSRM slightly
  slower than TI-CARM;
* (c, d) runtime grows with the per-ad budget, TI-CARM's curve flatter.

All runs go through the sampler-backend seam (``bench_config``'s
``workers``, settable via ``REPRO_BENCH_WORKERS``)
so the scalability figures exercise the same code path ``--workers``
users get — never a privately constructed sampler.
"""

import numpy as np
import pytest

from repro.experiments.figures import run_figure5_advertisers, run_figure5_budgets
from repro.experiments.reporting import format_table, save_report

from benchmarks.conftest import FULL, run_once

H_VALUES = (1, 5, 10, 15, 20) if FULL else (1, 5, 10)


@pytest.mark.parametrize("dataset_name", ["dblp", "livejournal"])
def test_fig5_runtime_vs_advertisers(benchmark, dataset_name, request, bench_config):
    dataset = request.getfixturevalue(dataset_name)
    rows = run_once(
        benchmark,
        run_figure5_advertisers,
        dataset,
        bench_config,
        h_values=H_VALUES,
    )
    text = format_table(rows)
    header = (
        f"\n== Figure 5(a,b): runtime vs h ({dataset.name}, "
        f"workers={bench_config.workers}) ==\n"
    )
    print(header + text)
    save_report(f"fig5_advertisers_{dataset.name}", text)

    for algo in ("TI-CSRM", "TI-CARM"):
        series = [r for r in rows if r["algorithm"] == algo]
        times = [r["runtime_s"] for r in series]
        # Runtime grows with h.
        assert times[-1] >= times[0]
        # Roughly linear: the largest h costs no more than ~3x a linear
        # extrapolation from the smallest h (generous, noise-tolerant).
        per_h = times[0] / max(series[0]["h"], 1)
        assert times[-1] <= 4.0 * per_h * series[-1]["h"] + 1.0


@pytest.mark.parametrize("dataset_name", ["dblp", "livejournal"])
def test_fig5_runtime_vs_budget(benchmark, dataset_name, request, bench_config):
    dataset = request.getfixturevalue(dataset_name)
    median_budget = float(np.median(dataset.budgets))
    budgets = tuple(round(median_budget * f, 1) for f in (0.5, 1.0, 2.0, 3.0))
    rows = run_once(
        benchmark,
        run_figure5_budgets,
        dataset,
        bench_config,
        budgets=budgets,
        h=5,
    )
    text = format_table(rows)
    header = (
        f"\n== Figure 5(c,d): runtime vs budget ({dataset.name}, "
        f"workers={bench_config.workers}) ==\n"
    )
    print(header + text)
    save_report(f"fig5_budgets_{dataset.name}", text)

    for algo in ("TI-CSRM", "TI-CARM"):
        series = sorted(
            (r for r in rows if r["algorithm"] == algo), key=lambda r: r["budget"]
        )
        # More budget means at least as many seeds and no less work.
        assert series[-1]["seeds"] >= series[0]["seeds"]
