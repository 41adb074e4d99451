"""Hot-path micro/macro benchmarks for the RR data plane (perf trajectory).

Measures, on a mid-size synthetic instance (EPINIONS analog, n = 3000,
h = 8, θ capped at 20k):

* sampler throughput — RR sets/second via ``sample_batch_flat``;
* ``mark_covered_by`` latency — 200 covers of the highest-coverage nodes
  over a 20k-set collection;
* full ``repro.solve`` wall time for TI-CSRM and TI-CARM.

Results are written machine-readable to ``BENCH_hotpaths.json`` at the
repo root so future PRs can track the perf trajectory; the JSON also
embeds the frozen pre-flat-backend baseline (measured on the same
workload/machine at the time of the flat-CSR refactor) and the implied
speedups.

This file also measures the **serial-vs-parallel sampler scaling
curve** over the backend seam (``repro.rrset.backend``) and writes it
to a separate ``BENCH_parallel.json`` — the hotpath trajectory file is
extended, never overwritten.  Parallel numbers are only meaningful on
multi-core hosts; the report embeds ``os.cpu_count()`` so a single-core
CI box's sub-1× ratios are legible as host artifacts, not regressions.

Run standalone: ``PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py``,
or explicitly via ``pytest benchmarks/bench_perf_hotpaths.py`` (the file
does not match the default ``test_*.py`` collection pattern, so the
tier-1 run never executes it).  The ≥3× acceptance evidence for the
flat-backend PR is the committed ``BENCH_hotpaths.json`` (15.3× on the
reference machine); the pytest wrappers check the reports' structure,
not wall-clock ratios, because absolute numbers from one machine would
fail spuriously on a slower or narrower host.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.api import EngineSpec, solve
from repro.experiments.datasets import build_dataset
from repro.rrset.backend import ParallelBackend, SharedGraphPool
from repro.rrset.collection import RRCollection
from repro.rrset.sampler import RRSampler

try:  # package import (pytest from the repo root)
    from benchmarks.trajectory import append_entry
except ImportError:  # standalone: python benchmarks/bench_perf_hotpaths.py
    from trajectory import append_entry

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_hotpaths.json"
PARALLEL_RESULT_PATH = REPO_ROOT / "BENCH_parallel.json"

# One worker is the serial backend, measured separately as the reference.
WORKER_CURVE = (2, 4)

WORKLOAD = dict(
    dataset="epinions_syn",
    n=3_000,
    h=8,
    singleton_rr_samples=2_000,
    sampler_sets=20_000,
    cover_ops=200,
    eps=0.3,
    theta_cap=20_000,
    seed=11,
)

# Frozen reference: the pure-Python list-of-lists backend (per-set
# sampling loop, per-member index appends, full per-round candidate
# rescans) measured on exactly this workload immediately before the
# flat-CSR + lazy-candidate refactor.
SEED_BASELINE = {
    "sampler_sets_per_s": 82_499.0,
    "mark_covered_s_per_200": 0.011,
    "ticsrm_run_s": 3.266,
}


def _build():
    ds = build_dataset(
        WORKLOAD["dataset"],
        n=WORKLOAD["n"],
        h=WORKLOAD["h"],
        singleton_rr_samples=WORKLOAD["singleton_rr_samples"],
    )
    return ds, ds.build_instance("linear", 1.0)


def bench_sampler(inst) -> tuple[float, RRCollection]:
    # RRSampler is the serial sampler every engine/oracle consumer gets
    # from EngineWarmState.make_sampler, so this is their code path.
    sampler = RRSampler(inst.graph, inst.ad_probs[0])
    rng = np.random.default_rng(123)
    t0 = time.perf_counter()
    members, indptr = sampler.sample_batch_flat(WORKLOAD["sampler_sets"], rng)
    elapsed = time.perf_counter() - t0
    coll = RRCollection(inst.graph.n)
    coll.add_sets_flat(members, indptr)
    return WORKLOAD["sampler_sets"] / elapsed, coll


def bench_mark_covered(coll: RRCollection) -> float:
    order = np.argsort(-coll.counts)[: WORKLOAD["cover_ops"]]
    t0 = time.perf_counter()
    for v in order:
        coll.mark_covered_by(int(v))
    return time.perf_counter() - t0


def bench_engine(ds, inst, name: str) -> float:
    spec = EngineSpec(
        eps=WORKLOAD["eps"],
        theta_cap=WORKLOAD["theta_cap"],
        opt_lower=ds.opt_lower_bounds(),
        seed=WORKLOAD["seed"],
    )
    t0 = time.perf_counter()
    solve(inst, name, spec)
    return time.perf_counter() - t0


def run_benchmarks() -> dict:
    ds, inst = _build()
    sets_per_s, coll = bench_sampler(inst)
    cover_s = bench_mark_covered(coll)
    csrm_s = bench_engine(ds, inst, "TI-CSRM")
    carm_s = bench_engine(ds, inst, "TI-CARM")
    current = {
        "sampler_sets_per_s": round(sets_per_s, 1),
        "mark_covered_s_per_200": round(cover_s, 5),
        "ticsrm_run_s": round(csrm_s, 4),
        "ticarm_run_s": round(carm_s, 4),
    }
    report = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workload": WORKLOAD,
        "seed_baseline": SEED_BASELINE,
        "current": current,
        "speedup_vs_seed": {
            "sampler": round(
                current["sampler_sets_per_s"] / SEED_BASELINE["sampler_sets_per_s"], 2
            ),
            "mark_covered_by": round(
                SEED_BASELINE["mark_covered_s_per_200"]
                / max(current["mark_covered_s_per_200"], 1e-9),
                2,
            ),
            "ticsrm_end_to_end": round(
                SEED_BASELINE["ticsrm_run_s"] / max(current["ticsrm_run_s"], 1e-9), 2
            ),
        },
    }
    return report


def bench_parallel_scaling(inst) -> dict:
    """Serial-vs-parallel sampler throughput over the backend seam.

    Warms each backend before timing (pool spin-up and allocator noise
    are not sampler throughput).  Records one curve point per entry of
    ``WORKER_CURVE`` plus the serial reference, with the host core
    count, so the scaling claim is always read against the hardware it
    ran on.
    """
    graph, probs = inst.graph, inst.ad_probs[0]
    count = WORKLOAD["sampler_sets"]

    serial = RRSampler(graph, probs)
    serial.sample_batch_flat(2_000, np.random.default_rng(0))  # warm
    t0 = time.perf_counter()
    serial.sample_batch_flat(count, np.random.default_rng(123))
    serial_rate = count / (time.perf_counter() - t0)

    curve = []
    for workers in WORKER_CURVE:
        with SharedGraphPool(graph, workers) as pool:
            backend = ParallelBackend(graph, probs, pool=pool)
            backend.sample_batch_flat(2_000, np.random.default_rng(0))  # warm
            t0 = time.perf_counter()
            backend.sample_batch_flat(count, np.random.default_rng(123))
            rate = count / (time.perf_counter() - t0)
        curve.append(
            {
                "workers": workers,
                "sampler_sets_per_s": round(rate, 1),
                "speedup_vs_serial": round(rate / serial_rate, 2),
            }
        )
    return {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "workload": WORKLOAD,
        "serial_sets_per_s": round(serial_rate, 1),
        "curve": curve,
        "note": (
            "speedup_vs_serial scales with physical cores; on a "
            "single-core host workers >= 2 time-slice one CPU and land "
            "below 1.0 by construction"
        ),
    }


def save_report(report: dict) -> None:
    # Appends to the trajectory — never overwrites recorded history
    # (legacy single-report files are wrapped in place).
    append_entry(RESULT_PATH, report)


def save_parallel_report(report: dict) -> None:
    append_entry(PARALLEL_RESULT_PATH, report)


def test_perf_hotpaths():
    """The benchmark completes and produces a well-formed trajectory report."""
    report = run_benchmarks()
    save_report(report)
    print(json.dumps(report, indent=2))
    assert report["current"]["sampler_sets_per_s"] > 0
    assert report["current"]["ticsrm_run_s"] > 0
    assert set(report["speedup_vs_seed"]) == {
        "sampler",
        "mark_covered_by",
        "ticsrm_end_to_end",
    }


def test_parallel_scaling():
    """The scaling curve completes and is well-formed (structure only —
    the speedup ratio is a property of the host's core count)."""
    _, inst = _build()
    report = bench_parallel_scaling(inst)
    save_parallel_report(report)
    print(json.dumps(report, indent=2))
    assert report["serial_sets_per_s"] > 0
    assert [p["workers"] for p in report["curve"]] == list(WORKER_CURVE)
    assert all(p["sampler_sets_per_s"] > 0 for p in report["curve"])
    assert report["meta"]["cpu_count"] >= 1


if __name__ == "__main__":
    report = run_benchmarks()
    save_report(report)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {RESULT_PATH}")
    parallel_report = bench_parallel_scaling(_build()[1])
    save_parallel_report(parallel_report)
    print(json.dumps(parallel_report, indent=2))
    print(f"\nwrote {PARALLEL_RESULT_PATH}")
