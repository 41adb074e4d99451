"""Extension bench: shared RR stores (future work i).

The paper asks whether TI-CSRM "can be made more memory efficient hence
more scalable".  In its own experiments every ad shares one probability
vector (Weighted Cascade) or one per competition pair, so the RR sets of
sharing ads are i.i.d. from the same distribution — the sets and the
inverted index can be stored once.  This bench measures the saving and
confirms the allocation quality is unaffected (the estimator semantics
are identical; only the random draws differ).
"""

import pytest

from repro.api import EngineSpec, solve
from repro.experiments.reporting import format_table, save_report

from benchmarks.conftest import run_once


def _compare(dataset, config, h_label):
    instance = dataset.build_instance("linear", 1.0)
    spec = EngineSpec(
        eps=config.eps,
        theta_cap=config.theta_cap,
        opt_lower=dataset.opt_lower_bounds(),
        seed=config.seed,
    )
    rows = []
    results = {}
    for share in (False, True):
        result = solve(instance, "TI-CSRM", spec, share_samples=share)
        results[share] = result
        rows.append(
            {
                "dataset": dataset.name,
                "h": instance.h,
                "mode": "shared" if share else "private",
                "memory_mb": result.extras["memory_bytes"] / 1e6,
                "revenue": result.total_revenue,
                "seeds": result.total_seeds,
                "runtime_s": result.runtime_seconds,
            }
        )
    return rows, results


def test_memory_sharing(benchmark, epinions, bench_config):
    rows, results = run_once(benchmark, _compare, epinions, bench_config, "h10")
    text = format_table(rows)
    print("\n== Extension: shared RR stores (memory) ==\n" + text)
    save_report("ext_memory_sharing", text)

    private = next(r for r in rows if r["mode"] == "private")
    shared = next(r for r in rows if r["mode"] == "shared")
    # All 10 epinions-analog ads share one probability vector: the saving
    # should approach h-fold on the set storage.
    assert shared["memory_mb"] < 0.5 * private["memory_mb"]
    # Allocation quality is statistically unchanged.
    assert shared["revenue"] == pytest.approx(private["revenue"], rel=0.25)
    # Constraints hold in shared mode.
    instance = epinions.build_instance("linear", 1.0)
    for i in range(instance.h):
        assert results[True].payment_per_ad[i] <= instance.budget(i) + 1e-6
