"""Seeded goldens and degenerate graphs for the batch RR sampler.

:func:`~repro.rrset.sampler.sample_batch_flat_kernel` is the one
reverse-BFS kernel behind every sampling path.  Three layers pin it:

1. golden seeded TI-CSRM / TI-CARM allocations, literal seed sets
   asserted across (storage, spill) combinations — any drift of the
   RNG stream fails here — plus KPT-priced goldens across θ caps and
   storage, which also pin KPT's width draws and the engine's θ sizing;
2. degenerate graphs: empty graph, single node, isolated roots, and a
   self-loop/duplicate-arc edge list reloaded via ``ingest_edge_list``;
3. the ``kernel`` argument still accepted by :func:`repro.resolve_kernel`
   and :class:`RRSampler`, which only name the one kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import EngineSpec, solve
from repro.errors import EstimationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.graph.io import ingest_edge_list
from repro.rrset.backend import ParallelBackend
from repro.rrset.sampler import RRSampler


def _batch(graph, probs, count, seed):
    """One seeded batch through :meth:`RRSampler.sample_batch_flat`."""
    return RRSampler(graph, probs).sample_batch_flat(
        count, np.random.default_rng(seed)
    )


def _er_graph(n, p, graph_seed, probs_seed):
    g = erdos_renyi(n, p, seed=graph_seed)
    probs = np.random.default_rng(probs_seed).random(g.m)
    return g, probs


# ----------------------------------------------------------------------
# 1. Golden seeded allocations across (storage, spill)
# ----------------------------------------------------------------------
#: Seed sets of the pinned run (epinions_syn n=120 h=2, linear α=1.0,
#: eps=1.0, theta_cap=120, seed=11).  Literal values lock the RNG
#: stream itself: any storage/spill combination that drifts —
#: even to an equally valid sample — fails loudly here.  Private and
#: shared sampling are *documented* distinct streams (prob-identical
#: ads share one store under ``share_samples``), so each gets its own
#: golden; spilling a store must never move its golden.
GOLDEN = {
    "TI-CSRM": {
        "private": {
            "seeds": [
                [23, 4, 68, 89, 90, 101, 16, 21, 37, 24, 83, 105, 106,
                 109, 36, 43, 87, 76],
                [12, 3, 65, 29, 113, 69, 80, 1, 95, 119, 6, 38, 53, 20, 8],
            ],
            "revenue": [82.5, 46.0],
        },
        "shared": {
            "seeds": [
                [23, 4, 68, 89, 90, 101, 16, 21, 37, 24, 83, 105, 106,
                 109, 36, 43, 87, 76],
                [78, 52, 44, 14, 48, 5, 69, 6, 17, 10, 32, 84, 7, 12],
            ],
            "revenue": [82.5, 40.0],
        },
    },
    "TI-CARM": {
        "private": {
            "seeds": [
                [93, 40, 31, 101, 17, 67, 6, 16, 21],
                [103, 61, 88, 94],
            ],
            "revenue": [69.0, 37.0],
        },
        "shared": {
            "seeds": [
                [93, 103, 61, 17, 67, 101, 6],
                [111, 40, 31, 23, 77, 16],
            ],
            "revenue": [61.5, 37.0],
        },
    },
}


#: KPT-priced runs of the same instance and seed (``opt_lower="kpt"``),
#: keyed by ``theta_cap`` then storage.  KPT's width draws share each
#: ad's RNG stream with its RR sets, so these pin the estimator's draws
#: and the engine's θ sizing together.  At cap 120, θ is capped at KPT's
#: ceiling from ``s = 1``; at cap 500 only at larger ``s`` (so the
#: engine skips the moot KPT calls while ``s = 1`` still asks KPT);
#: uncapped, θ follows every KPT bound.
KPT_GOLDEN = {
    "TI-CARM": {
        120: {
            "private": {
                "seeds": [
                    [103, 40, 46, 61, 31, 9, 17],
                    [111, 70, 94, 93, 80, 10, 41],
                ],
                "revenue": [64.5, 39.0],
                "theta": [120, 120],
            },
            "shared": {
                "seeds": [
                    [103, 40, 46, 94, 88, 17, 19],
                    [61, 31, 111, 15, 30, 26, 48],
                ],
                "revenue": [64.5, 36.0],
                "theta": [120, 120],
            },
        },
        500: {
            "private": {
                "seeds": [
                    [103, 111, 61, 15, 79, 77],
                    [93, 40, 31, 88, 17, 30, 13],
                ],
                "revenue": [60.84, 35.04],
                "theta": [500, 500],
            },
            "shared": {
                "seeds": [
                    [103, 111, 61, 15, 79, 77],
                    [40, 31, 100, 17, 93, 94],
                ],
                "revenue": [60.84, 32.16],
                "theta": [500, 500],
            },
        },
        None: {
            "private": {
                "seeds": [
                    [103, 111, 40, 15, 97, 77, 88],
                    [61, 93, 31, 17, 100, 67],
                ],
                "revenue": [60.026651860077735, 30.55805003207184],
                "theta": [9005, 9354],
            },
            "shared": {
                "seeds": [
                    [103, 111, 40, 15, 97, 77, 88],
                    [61, 93, 31, 17, 67, 100],
                ],
                "revenue": [60.026651860077735, 30.329816768461967],
                "theta": [9005, 9005],
            },
        },
    },
    "TI-CSRM": {
        120: {
            "private": {
                "seeds": [
                    [119, 65, 71, 83, 89, 19, 48, 52, 102, 2, 26, 68, 105,
                     106, 113, 16, 35, 58, 32, 82],
                    [29, 91, 50, 86, 70, 3, 10, 23, 60, 75, 21, 37, 53, 114,
                     80],
                ],
                "revenue": [82.5, 46.0],
                "theta": [120, 120],
            },
            "shared": {
                "seeds": [
                    [119, 65, 71, 83, 89, 19, 48, 52, 102, 2, 26, 29, 68,
                     91, 105, 106, 113, 16, 35, 58],
                    [7, 9, 22, 70, 82, 92, 117, 46, 8, 32, 69, 80, 31],
                ],
                "revenue": [79.5, 42.0],
                "theta": [120, 120],
            },
        },
        500: {
            "private": {
                "seeds": [
                    [29, 78, 105, 65, 109, 26, 48, 52, 4, 71, 75, 89, 119,
                     35, 20, 19, 23, 57, 85, 94, 102, 1, 12],
                    [118, 91, 21, 60, 98, 80, 3, 24, 90, 88, 36, 7, 53, 63,
                     86, 113, 70, 10],
                ],
                "revenue": [68.76, 37.92],
                "theta": [500, 500],
            },
            "shared": {
                "seeds": [
                    [29, 78, 105, 65, 109, 26, 48, 52, 4, 71, 75, 89, 119,
                     35, 20, 19, 23, 57, 85, 98, 94, 102],
                    [80, 36, 15, 90, 37, 2, 12, 60, 91, 31, 28, 1, 83, 106,
                     79],
                ],
                "revenue": [68.4, 36.24],
                "theta": [500, 500],
            },
        },
        None: {
            "private": {
                "seeds": [
                    [65, 118, 4, 52, 89, 21, 29, 119, 26, 3, 90, 2, 91, 109,
                     12, 105, 83, 60, 23, 86, 35, 37, 68, 69, 20, 85, 14,
                     16, 78, 6],
                    [80, 113, 48, 42, 106, 15, 71, 58, 104, 75, 114, 24, 55,
                     96, 19, 7, 53, 36, 8],
                ],
                "revenue": [67.8023320377568, 33.842206542655546],
                "theta": [9005, 9354],
            },
            "shared": {
                "seeds": [
                    [65, 118, 4, 52, 89, 21, 29, 119, 26, 3, 90, 2, 91, 109,
                     12, 105, 83, 60, 23, 86, 35, 37, 68, 69, 20, 48, 85,
                     14, 16, 78],
                    [80, 113, 42, 75, 104, 15, 36, 7, 24, 49, 106, 114, 96,
                     63, 81, 71, 6, 57],
                ],
                "revenue": [66.82287617990005, 32.541921154913936],
                "theta": [9005, 9005],
            },
        },
    },
}


@pytest.fixture(scope="module")
def golden_instance():
    from repro.experiments.datasets import build_dataset

    ds = build_dataset("epinions_syn", n=120, h=2, singleton_rr_samples=400)
    inst = ds.build_instance(incentive_model="linear", alpha=1.0)
    return inst, ds.opt_lower_bounds()


def _golden_spec(opt_lower, **overrides):
    params = dict(eps=1.0, theta_cap=120, opt_lower=opt_lower, seed=11)
    params.update(overrides)
    return EngineSpec(**params)


class TestGoldenAllocations:
    @pytest.mark.parametrize("algorithm", sorted(GOLDEN))
    @pytest.mark.parametrize(
        "golden_key, extra",
        [
            ("private", {}),
            ("shared", {"share_samples": True}),
            # rr_bytes_budget=1 forces every store to spill to a memmap
            # on its first batch; allocations must not move off either
            # golden.
            ("private", {"rr_bytes_budget": 1}),
            ("shared", {"share_samples": True, "rr_bytes_budget": 1}),
        ],
        ids=["ram-private", "ram-shared", "spill-private", "spill-shared"],
    )
    def test_serial_combinations_match_golden(
        self, golden_instance, algorithm, golden_key, extra
    ):
        inst, opt_lower = golden_instance
        result = solve(inst, algorithm, _golden_spec(opt_lower, **extra))
        golden = GOLDEN[algorithm][golden_key]
        assert result.allocation.seed_sets() == golden["seeds"]
        assert result.revenue_per_ad == pytest.approx(golden["revenue"])
        if extra.get("rr_bytes_budget"):
            assert result.extras["memory"]["spilled_stores"] >= 1

    @pytest.mark.parametrize("algorithm", sorted(KPT_GOLDEN))
    @pytest.mark.parametrize(
        "theta_cap", [120, 500, None], ids=["cap120", "cap500", "uncapped"]
    )
    @pytest.mark.parametrize("storage", ["private", "shared"])
    def test_kpt_priced_match_golden(
        self, golden_instance, algorithm, theta_cap, storage
    ):
        inst, _ = golden_instance
        spec = _golden_spec(
            "kpt", theta_cap=theta_cap, share_samples=storage == "shared"
        )
        result = solve(inst, algorithm, spec)
        golden = KPT_GOLDEN[algorithm][theta_cap][storage]
        assert result.allocation.seed_sets() == golden["seeds"]
        assert result.revenue_per_ad == pytest.approx(golden["revenue"])
        assert result.extras["theta_per_ad"] == golden["theta"]


# ----------------------------------------------------------------------
# 2. Degenerate graphs
# ----------------------------------------------------------------------
class TestDegenerateGraphs:
    def test_empty_graph_rejected(self):
        empty = DiGraph.from_edge_list([], n=0)
        with pytest.raises(EstimationError):
            ParallelBackend(empty, np.zeros(0), workers=2)
        with pytest.raises(EstimationError):
            _batch(empty, np.zeros(0), 3, 0)

    def test_single_node_graph(self):
        g = DiGraph.from_edge_list([], n=1)
        members, indptr = _batch(g, np.zeros(0), 7, 5)
        np.testing.assert_array_equal(members, np.zeros(7, dtype=np.int64))
        np.testing.assert_array_equal(indptr, np.arange(8, dtype=np.int64))

    def test_isolated_roots_are_singletons(self):
        # Nodes 10..29 have no arcs at all: their RR sets are singleton
        # roots, interleaved with reachable ones in the same batch.
        edges = [(i, j) for i in range(10) for j in range(10) if i != j]
        g = DiGraph.from_edge_list(edges, n=30)
        members, indptr = _batch(g, np.full(g.m, 0.4), 50, 13)
        roots = members[indptr[:-1]]
        isolated = roots >= 10
        assert isolated.any() and not isolated.all()
        np.testing.assert_array_equal(
            np.diff(indptr)[isolated], np.ones(int(isolated.sum()))
        )
        # A reachable root's set never leaves its 10-node component.
        assert members[np.repeat(~isolated, np.diff(indptr))].max() < 10

    def test_self_loop_stripped_multigraph_reload(self, tmp_path):
        # A messy crawl: duplicate arcs, self loops, comment lines.
        path = tmp_path / "messy.txt"
        path.write_text(
            "# messy multigraph crawl\n"
            "0 1\n0 1\n1 1\n1 2\n2 0\n2 2\n3 0\n0 1\n3 3\n2 1\n"
        )
        result = ingest_edge_list(str(path))  # dedupes + drops self loops
        g = result.graph
        assert g.m == 5  # (0,1) (1,2) (2,0) (3,0) (2,1)
        probs = np.random.default_rng(2).random(g.m)
        members, indptr = _batch(g, probs, 40, 17)
        assert indptr.shape == (41,) and indptr[-1] == members.size
        assert members.min() >= 0 and members.max() < g.n
        for k in range(40):
            members_k = members[indptr[k]:indptr[k + 1]]
            assert np.unique(members_k).size == members_k.size
        again = _batch(g, probs, 40, 17)
        np.testing.assert_array_equal(members, again[0])
        np.testing.assert_array_equal(indptr, again[1])


# ----------------------------------------------------------------------
# 3. The kernel name kept for callers that still pass it
# ----------------------------------------------------------------------
class TestResolve:
    def test_legal_spellings(self):
        for name in (None, "numpy", "auto"):
            assert repro.resolve_kernel(name) == "numpy"
        g, probs = _er_graph(30, 0.2, 3, 4)
        named = RRSampler(g, probs, kernel="numpy").sample_batch_flat(
            40, np.random.default_rng(5)
        )
        plain = _batch(g, probs, 40, 5)
        np.testing.assert_array_equal(named[0], plain[0])
        np.testing.assert_array_equal(named[1], plain[1])

    def test_unknown_kernel_rejected(self):
        g, probs = _er_graph(5, 0.5, 1, 2)
        for name in ("gpu", "jit", ""):
            with pytest.raises(EstimationError, match="unknown kernel"):
                repro.resolve_kernel(name)
            with pytest.raises(EstimationError, match="unknown kernel"):
                RRSampler(g, probs, kernel=name)
