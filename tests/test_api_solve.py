"""repro.solve: engine identity, blocked masks, provenance echo."""

import numpy as np
import pytest

import repro
from repro.api import EngineSpec, solve
from repro.core.ti_engine import TIEngine

from tests.conftest import make_tiny_instance

SPEC = EngineSpec(eps=0.8, theta_cap=150, opt_lower=1.0, seed=17)

ENGINE_RULES = {
    "TI-CSRM": ("cs", "rate"),
    "TI-CARM": ("ca", "revenue"),
    "PageRank-GR": ("pagerank", "revenue"),
    "PageRank-RR": ("pagerank", "round_robin"),
}


def _same_result(a, b):
    assert a.allocation.seed_sets() == b.allocation.seed_sets()
    assert a.revenue_per_ad == b.revenue_per_ad
    assert a.seeding_cost_per_ad == b.seeding_cost_per_ad
    assert a.algorithm == b.algorithm


def _direct(inst, name, spec, label=None):
    rule, selector = ENGINE_RULES[name]
    return TIEngine(
        inst, spec, candidate_rule=rule, selector=selector,
        algorithm_name=label or name,
    ).run()


class TestLegacyBitIdentity:
    @pytest.mark.parametrize("name", sorted(ENGINE_RULES))
    def test_solve_matches_direct_engine(self, name):
        """solve(instance, name, spec) ≡ the engine built from the same spec."""
        inst = make_tiny_instance()
        _same_result(solve(inst, name, SPEC), _direct(inst, name, SPEC))

    def test_windowed_ticsrm_identity(self):
        inst = make_tiny_instance()
        via_solve = solve(inst, "TI-CSRM", SPEC, window=2)
        direct = _direct(inst, "TI-CSRM", SPEC.override(window=2), "TI-CSRM(2)")
        _same_result(via_solve, direct)
        assert via_solve.algorithm == "TI-CSRM(2)"


class TestBlockedParity:
    """`blocked` must be respected by every algorithm, cold and warm."""

    @staticmethod
    def _blocked(inst):
        blocked = np.zeros(inst.n, dtype=bool)
        blocked[[0, 3]] = True
        return blocked

    @staticmethod
    def _seeded(result):
        return {node for seeds in result.allocation.seed_sets() for node in seeds}

    @pytest.mark.parametrize("name", sorted(ENGINE_RULES))
    def test_blocked_kwarg_respected_everywhere(self, name):
        """The same mask through a session's warm (shared-store) path."""
        inst = make_tiny_instance()
        with repro.AllocationSession(inst.graph, spec=SPEC) as session:
            assert self._seeded(session.solve(inst, name)) & {0, 3}
            result = session.solve(inst, name, blocked=self._blocked(inst))
        assert not self._seeded(result) & {0, 3}

    @pytest.mark.parametrize("name", sorted(ENGINE_RULES))
    def test_blocked_through_solve(self, name):
        inst = make_tiny_instance()
        assert self._seeded(solve(inst, name, SPEC)) & {0, 3}
        result = solve(inst, name, SPEC, blocked=self._blocked(inst))
        assert not self._seeded(result) & {0, 3}


class TestProvenanceEcho:
    """Satellite: the fully resolved EngineSpec rides in extras."""

    def test_extras_carry_complete_spec(self):
        inst = make_tiny_instance()
        result = solve(inst, "TI-CSRM", SPEC, window=2)
        echoed = result.extras["engine_spec"]
        # Round-trips back into the exact spec the engine ran with.
        assert EngineSpec.from_dict(echoed) == SPEC.override(window=2)
        for key in ("theta_cap", "opt_lower", "seed", "eps", "ell",
                    "share_samples", "workers", "rr_bytes_budget",
                    "kpt_max_samples", "window"):
            assert key in echoed

    def test_window_cleared_for_unwindowed_algorithms(self):
        inst = make_tiny_instance()
        result = solve(inst, "TI-CARM", SPEC, window=3)
        assert result.extras["engine_spec"]["window"] is None
        # ... which preserves TI-CARM's lazy caching.
        assert result.extras["lazy_candidates"] is True

    def test_grid_manifest_rows_carry_spec(self, tmp_path):
        from repro.experiments.datasets import build_dataset
        from repro.experiments.grid import GridSpec, run_grid

        spec = GridSpec(
            name="prov",
            datasets=({"name": "epinions_syn", "n": 120, "h": 2,
                       "singleton_rr_samples": 300},),
            algorithms=("TI-CSRM",),
            alphas=(1.0,),
            config={"eps": 1.0, "theta_cap": 120},
        )
        rows = run_grid(spec, str(tmp_path / "m.jsonl"))
        assert len(rows) == 1
        echoed = rows[0]["engine_spec"]
        assert echoed["theta_cap"] == 120
        assert echoed["seed"] == rows[0]["cell_seed"]
        EngineSpec.from_dict(echoed)  # validates

    def test_solve_in_package_namespace(self):
        assert repro.solve is solve
        for name in ("EngineSpec", "AllocationSession", "register_algorithm"):
            assert name in repro.__all__
