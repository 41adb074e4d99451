"""Incremental vs cold maintenance benchmark (``BENCH_dynamic.json``).

Measures what :meth:`repro.AllocationSession.apply_edge_updates` buys
over a cold restart when the graph mutates mid-campaign
(docs/ARCHITECTURE.md §14).  For each target invalidation rate the
harness crafts a probability-decrease batch whose changed heads touch
approximately that fraction of the warm store's RR sets, then compares:

* **incremental** — ``apply_edge_updates`` (edge-precise invalidation +
  root-pinned resampling of only the invalidated slots) followed by a
  warm re-solve on the mutated graph;
* **cold** — a fresh ``repro.solve`` on the mutated graph with
  ``share_samples=True`` (full KPT re-estimation and a 100% resample,
  what a session-less caller pays).  A session always stores RR sets
  shared by probability family, so the cold leg uses the same store
  semantics and the two legs differ only in what they resample.

The crossover is the point of the design: at low invalidation rates the
incremental path resamples a small fraction of θ sets and re-solves
from the maintained store, so it should beat cold comfortably at 1% and
10% and approach (or lose to) cold near 50%, where it pays both a large
resample *and* the maintenance bookkeeping.

Run standalone: ``PYTHONPATH=src python benchmarks/bench_dynamic.py``,
or via ``pytest benchmarks/bench_dynamic.py`` (structure checks only —
wall-clock ratios from one machine would fail spuriously elsewhere).
Like the other ``BENCH_*.json`` files, the committed numbers extend the
trajectory (append-only via :mod:`benchmarks.trajectory`); re-run on
your own host to compare.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.api import AllocationSession, EngineSpec, solve
from repro.core.ads import Advertiser
from repro.core.instance import RMInstance
from repro.experiments.datasets import build_dataset
from repro.graph.updates import compile_updates

try:  # package import (pytest from the repo root)
    from benchmarks.trajectory import append_entry
except ImportError:  # standalone: python benchmarks/<script>.py
    from trajectory import append_entry

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_dynamic.json"

WORKLOAD = dict(
    dataset="epinions_syn",
    n=1_500,
    h=4,
    singleton_rr_samples=1_500,
    eps=0.4,
    theta_cap=10_000,
    seed=11,
    target_rates=(0.01, 0.10, 0.50),
)


def _build():
    ds = build_dataset(
        WORKLOAD["dataset"],
        n=WORKLOAD["n"],
        h=WORKLOAD["h"],
        singleton_rr_samples=WORKLOAD["singleton_rr_samples"],
    )
    instance = ds.build_instance(incentive_model="linear", alpha=1.0)
    spec = EngineSpec(
        eps=WORKLOAD["eps"],
        theta_cap=WORKLOAD["theta_cap"],
        opt_lower="kpt",
        seed=WORKLOAD["seed"],
    )
    return instance, spec


def _batch_for_rate(graph, probs, store, target: float, rng) -> list:
    """A probability-decrease batch invalidating ≈ *target* of *store*.

    Greedily accumulates changed heads (random order, seeded) until the
    union of their containing sets reaches the target fraction; each
    chosen head contributes one ``set_prob`` halving the probability of
    its first in-arc.  Decreases only, so the batch also exercises the
    survivors-bit-identical regime the parity suite pins.
    """
    size = store.size
    mask = np.zeros(size, dtype=bool)
    updates = []
    for node in rng.permutation(graph.n):
        if mask.mean() >= target:
            break
        node = int(node)
        lo, hi = int(graph.in_indptr[node]), int(graph.in_indptr[node + 1])
        if lo == hi:
            continue
        sids = store.sets_containing(node)
        if sids.size == 0:
            continue
        edge_id = int(graph.in_edge_ids[lo])
        tail = int(graph.in_tails[lo])
        updates.append(("set_prob", tail, node, float(probs[edge_id]) * 0.5))
        mask[sids] = True
    return updates


def _rebuild(instance: RMInstance, graph, plan) -> RMInstance:
    advertisers = [
        Advertiser(index=i, cpe=instance.cpe(i), budget=instance.budget(i))
        for i in range(instance.h)
    ]
    probs = [plan.apply_probs(p) for p in instance.ad_probs]
    return RMInstance(graph, advertisers, probs, instance.incentives)


def run_benchmark() -> dict:
    instance, spec = _build()
    rates = []
    for target in WORKLOAD["target_rates"]:
        with AllocationSession(instance.graph, spec=spec) as session:
            session.solve(instance, "TI-CSRM")
            probs = np.asarray(instance.ad_probs[0], dtype=np.float64)
            store = session.store_for(probs)
            batch = _batch_for_rate(
                instance.graph, probs, store, target,
                np.random.default_rng(WORKLOAD["seed"] + 1),
            )
            plan = compile_updates(instance.graph, batch)

            t0 = time.perf_counter()
            report = session.apply_edge_updates(batch)
            maintain_s = time.perf_counter() - t0

            mutated = _rebuild(instance, session.graph, plan)
            t0 = time.perf_counter()
            warm = session.solve(mutated, "TI-CSRM")
            warm_solve_s = time.perf_counter() - t0

        cold_instance = _rebuild(instance, plan.new_graph, plan)
        t0 = time.perf_counter()
        cold = solve(cold_instance, "TI-CSRM", spec.override(share_samples=True))
        cold_s = time.perf_counter() - t0

        incremental_s = maintain_s + warm_solve_s
        rates.append(
            {
                "target_rate": target,
                "achieved_rate": round(report["invalidation_rate"], 4),
                "updates": report["updates"],
                "invalidated_sets": report["invalidated_sets"],
                "checked_sets": report["checked_sets"],
                "maintain_s": round(maintain_s, 4),
                "warm_solve_s": round(warm_solve_s, 4),
                "incremental_total_s": round(incremental_s, 4),
                "cold_solve_s": round(cold_s, 4),
                "speedup_vs_cold": round(cold_s / max(incremental_s, 1e-9), 2),
                "revenue_incremental": round(warm.total_revenue, 1),
                "revenue_cold": round(cold.total_revenue, 1),
            }
        )
    return {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workload": dict(WORKLOAD, target_rates=list(WORKLOAD["target_rates"])),
        "rates": rates,
        "note": (
            "incremental_total_s = apply_edge_updates (invalidation + "
            "root-pinned resample of only the invalidated sets) + one warm "
            "re-solve from the maintained store; cold_solve_s = fresh "
            "share_samples=True solve on the mutated graph (full KPT + 100% "
            "resample), the warm session's store semantics.  The design "
            "target is speedup_vs_cold > 1 at <= 10% invalidation."
        ),
    }


def main() -> None:
    report = run_benchmark()
    append_entry(RESULT_PATH, report)  # append-only: history is kept
    print(json.dumps(report, indent=2))
    print(f"# written to {RESULT_PATH}")


# -- pytest wrappers (structure only; see module docstring) -------------
def test_report_structure():
    small = dict(WORKLOAD)
    try:
        WORKLOAD.update(n=200, theta_cap=600, eps=1.0,
                        singleton_rr_samples=400, target_rates=(0.10,))
        report = run_benchmark()
    finally:
        WORKLOAD.clear()
        WORKLOAD.update(small)
    (rate,) = report["rates"]
    assert rate["invalidated_sets"] <= rate["checked_sets"]
    assert rate["achieved_rate"] >= 0.05  # the batch crafter hit its target
    assert rate["incremental_total_s"] > 0 and rate["cold_solve_s"] > 0


if __name__ == "__main__":
    main()
