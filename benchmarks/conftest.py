"""Shared fixtures for the benchmark suite.

Benchmarks run the real experiment pipelines on bench-scale analogs
(larger than the unit-test fixtures, smaller than the paper's crawls;
see the opening of docs/EXPERIMENTS.md).  Set ``REPRO_BENCH_FULL=1`` to run the full paper α
grids and h sweeps instead of the quick subsets.

Every bench prints the paper-style rows/series it regenerates and also
persists them under ``benchmarks/results/`` via
:func:`repro.experiments.reporting.save_report`.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import build_dataset

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"

# Sampler worker count for all benches: REPRO_BENCH_WORKERS >= 2 routes
# every engine run through the shared-memory parallel backend, so the
# figures measure exactly the code path a --workers user gets.  Default
# (0) is the serial backend — bit-identical to pre-seam benches.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0") or 0)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Estimator settings for benches (documented in EXPERIMENTS.md)."""
    return ExperimentConfig(
        eps=0.5,
        ell=0.5,
        theta_cap=2_000,
        opt_lower_mode="singleton",
        singleton_rr_samples=6_000,
        scalability_window=200,
        grid_mode="paper" if FULL else "quick",
        seed=7,
        workers=BENCH_WORKERS,
    )


@pytest.fixture(scope="session")
def flixster(bench_config):
    """FLIXSTER analog at bench scale (directed, TIC L=10, h=10)."""
    return build_dataset(
        "flixster_syn",
        n=1_200,
        h=10,
        singleton_rr_samples=bench_config.singleton_rr_samples,
    )


@pytest.fixture(scope="session")
def epinions(bench_config):
    """EPINIONS analog at bench scale (directed, capped WC, h=10)."""
    return build_dataset(
        "epinions_syn",
        n=1_500,
        h=10,
        singleton_rr_samples=bench_config.singleton_rr_samples,
    )


@pytest.fixture(scope="session")
def dblp(bench_config):
    """DBLP analog at bench scale (undirected, WC, degree-proxy costs)."""
    return build_dataset("dblp_syn", n=2_000, h=20)


@pytest.fixture(scope="session")
def livejournal(bench_config):
    """LIVEJOURNAL analog at bench scale (R-MAT, WC, degree-proxy costs)."""
    return build_dataset("livejournal_syn", scale=11, h=20)


@pytest.fixture(scope="session")
def dblp_small():
    """Smaller DBLP analog for Table 3: sized so the honest Eq.-8 sample
    sizes fit *under* the θ cap — the memory gap between TI-CSRM and
    TI-CARM is driven by L(s, ε) growing with the certified seed-set
    size, which a binding cap would flatten."""
    return build_dataset("dblp_syn", n=800, h=10, seed=303)


@pytest.fixture(scope="session")
def livejournal_small():
    """Smaller LIVEJOURNAL analog for Table 3 (see dblp_small)."""
    return build_dataset("livejournal_syn", scale=9, h=10, seed=404)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


_SWEEP_CACHE: dict = {}


def cached_alpha_sweep(dataset, config):
    """Figures 2 and 3 report different columns of the *same* runs; cache
    the sweep so the second bench reuses the first one's allocations."""
    from repro.experiments.figures import run_alpha_sweep

    key = (dataset.name, config)
    if key not in _SWEEP_CACHE:
        _SWEEP_CACHE[key] = run_alpha_sweep(dataset, config)
    return _SWEEP_CACHE[key]
