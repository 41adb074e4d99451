"""Shared fixtures for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.ads import Advertiser
from repro.core.instance import RMInstance
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import build_dataset
from repro.graph.digraph import DiGraph

#: Tolerance of every RR-estimate-vs-exact-spread check, in binomial
#: standard errors of ``n · F_R(S)`` (see :func:`spread_se`).
MAX_SE = 5.0


def spread_se(n: int, exact: float, samples: int) -> float:
    """Binomial standard error of ``n · F_R(S)`` over *samples* RR sets.

    ``F_R(S)`` counts the sets hit by ``S``; each is hit with
    probability ``σ(S) / n``, so with ``exact = σ(S)`` the estimate's
    standard error is ``n · sqrt(p (1 - p) / samples)``.
    """
    p = exact / n
    return n * math.sqrt(max(p * (1.0 - p), 0.0) / samples)


def assert_within_se(estimate: float, exact: float, n: int, samples: int) -> None:
    """*estimate* lies within :data:`MAX_SE` standard errors of *exact*.

    The 1e-9 slack absorbs float rounding in ``exact`` when the hit
    probability is 0 or 1 and the standard error vanishes.
    """
    se = spread_se(n, exact, samples)
    assert abs(estimate - exact) <= MAX_SE * se + 1e-9, (
        f"estimate {estimate} vs exact spread {exact}: off by more than "
        f"{MAX_SE} x SE {se}"
    )


def flat_sets(*sets) -> tuple[np.ndarray, np.ndarray]:
    """The flat ``(members, indptr)`` CSR pair holding *sets* in order,
    the one batch shape samplers produce and collections ingest."""
    arrays = [np.asarray(s, dtype=np.int64) for s in sets]
    indptr = np.concatenate(([0], np.cumsum([a.size for a in arrays]))).astype(np.int64)
    members = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    return members, indptr


@pytest.fixture
def rng():
    """A deterministic generator for test-local randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def path_graph():
    """0 -> 1 -> 2 -> 3."""
    return DiGraph.from_edge_list([(0, 1), (1, 2), (2, 3)], n=4)


@pytest.fixture
def star_graph():
    """Center 0 pointing at leaves 1..5."""
    return DiGraph.from_edge_list([(0, i) for i in range(1, 6)], n=6)


@pytest.fixture
def diamond_graph():
    """0 -> {1, 2} -> 3: two length-2 paths sharing endpoints."""
    return DiGraph.from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3)], n=4)


def make_tiny_instance(
    probs_value: float = 1.0,
    h: int = 2,
    budgets=(10.0, 10.0),
    cpes=(1.0, 1.0),
) -> RMInstance:
    """A 5-node, 2-ad instance small enough for the exact oracle.

    Graph: 0 -> 1 -> 2, 3 -> 4 (a chain plus a separate edge).
    """
    graph = DiGraph.from_edge_list([(0, 1), (1, 2), (3, 4)], n=5)
    probs = np.full(graph.m, probs_value)
    advertisers = [
        Advertiser(index=i, cpe=cpes[i], budget=budgets[i]) for i in range(h)
    ]
    incentives = [np.linspace(0.5, 1.5, graph.n) for _ in range(h)]
    return RMInstance(graph, advertisers, [probs] * h, incentives)


@pytest.fixture
def tiny_instance():
    """Deterministic (p = 1) two-ad instance for exact-oracle tests."""
    return make_tiny_instance()


@pytest.fixture(scope="session")
def quick_dataset():
    """A small FLIXSTER analog shared across experiment tests."""
    return build_dataset("flixster_syn", n=400, h=4, singleton_rr_samples=1_500)


@pytest.fixture(scope="session")
def quick_config():
    """Cheap estimator settings for integration tests."""
    return ExperimentConfig(eps=0.8, theta_cap=600, singleton_rr_samples=1_500, seed=3)
