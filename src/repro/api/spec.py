"""`EngineSpec`: one validated bundle of every TI-engine knob.

The ten engine parameters (``eps``, ``ell``, ``window``,
``theta_cap``, ``opt_lower``, ``kpt_max_samples``, ``share_samples``,
``workers``, ``rr_bytes_budget``, ``seed``) live here and nowhere else.
:class:`~repro.experiments.config.ExperimentConfig` (and through it
grid specs, the CLI and the serve daemon) compiles into an
:class:`EngineSpec`, and :class:`~repro.core.ti_engine.TIEngine` reads
every knob from the one it is given:

* **frozen** — a spec never mutates; derive variants with
  :meth:`override` (or :func:`dataclasses.replace`), which re-validates;
* **validated** — every constraint that does not depend on the
  instance is rejected at construction, with
  :class:`~repro.errors.SpecError` (the engine itself rejects per-ad
  ``opt_lower`` bounds that are fewer than the instance's ads);
* **JSON round-trip** — ``EngineSpec.from_dict(spec.to_dict())``
  equals ``spec`` and ``to_dict()`` is ``json.dumps``-able (per-ad
  ``opt_lower`` arrays become lists; tuples normalize back on load).
  CI checks this invariant on every committed ``specs/*.json``.

The spec holds no algorithm-defining rule (candidate rule and
selector come from the :mod:`~repro.api.registry`), no per-call data
such as ``blocked`` masks, which describe the query, not the engine
configuration, and no choice between implementations of one
computation: ``workers`` alone picks the RR sampler, and the engine
caches candidates whenever that is exact (docs/ARCHITECTURE.md §3,
§6).

Inside an :class:`~repro.api.session.AllocationSession` (and so in
the grid's ``warm_per_dataset`` mode) the session's base spec pins
``workers`` and ``rr_bytes_budget``: live sampler backends and RR
stores persist inside the warm state.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from repro._checks import check_int, check_number
from repro.errors import SpecError
from repro.rrset.tim import DEFAULT_THETA_CAP

#: Fields whose values already serialize to JSON scalars unchanged.
_SCALAR_FIELDS = (
    "eps",
    "ell",
    "window",
    "theta_cap",
    "kpt_max_samples",
    "share_samples",
    "workers",
    "rr_bytes_budget",
    "seed",
)


@dataclass(frozen=True)
class EngineSpec:
    """Every engine knob of one solve, frozen and validated.

    The field defaults are the engine's defaults: ``EngineSpec()`` is
    what :func:`repro.solve` runs when given no spec.  ``opt_lower`` is ``"kpt"`` (run TIM's estimator), a
    non-negative number (one lower bound for every ad), or a sequence
    of per-ad lower bounds (stored as a tuple for hashability); the
    engine floors every numeric bound at 1.0, so zeros are legal.
    """

    eps: float = 0.1
    ell: float = 1.0
    window: int | None = None
    theta_cap: int | None = DEFAULT_THETA_CAP
    opt_lower: object = "kpt"
    kpt_max_samples: int = 5_000
    share_samples: bool = False
    workers: int | None = None
    rr_bytes_budget: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("eps", "ell"):
            check_number(getattr(self, name), name, error=SpecError, positive=True)
        self._set_int("window", minimum=1, optional=True)
        self._set_int("theta_cap", minimum=1, optional=True)
        self._set_int("kpt_max_samples", minimum=1)
        if not isinstance(self.share_samples, bool):
            raise SpecError(
                f"share_samples must be true or false, got {self.share_samples!r}"
            )
        self._set_int("workers", minimum=0, optional=True)
        self._set_int("rr_bytes_budget", minimum=1, optional=True)
        # numpy's default_rng rejects negative seeds; fail here, not mid-solve.
        self._set_int("seed", minimum=0, optional=True)
        object.__setattr__(self, "opt_lower", self._normalize_opt_lower(self.opt_lower))

    def _set_int(self, name: str, *, minimum: int, optional: bool = False) -> None:
        """Coerce an integral field in place; reject fractions and bad types.

        Catches hand-edited JSON like ``"window": 1.5`` at construction
        (the class contract) instead of as a numpy TypeError mid-solve.
        """
        value = check_int(getattr(self, name), name, error=SpecError,
                          minimum=minimum, optional=optional)
        object.__setattr__(self, name, value)

    @staticmethod
    def _normalize_opt_lower(value):
        # Zero is allowed: the engine documents a floor of 1.0 on every
        # bound, so only negatives and non-finite values are genuine
        # spec errors.
        if isinstance(value, str):
            if value != "kpt":
                raise SpecError(f"unknown opt_lower spec {value!r}; options: 'kpt'")
            return value
        if isinstance(value, (list, tuple, np.ndarray)):
            bounds = tuple(
                check_number(v, "opt_lower bound", error=SpecError, minimum=0.0)
                for v in value
            )
            if not bounds:
                raise SpecError("opt_lower sequence must be non-empty")
            return bounds
        return check_number(value, "opt_lower", error=SpecError, minimum=0.0)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The spec as a JSON-able dict (inverse of :meth:`from_dict`)."""
        data = {name: getattr(self, name) for name in _SCALAR_FIELDS}
        opt_lower = self.opt_lower
        data["opt_lower"] = list(opt_lower) if isinstance(opt_lower, tuple) else opt_lower
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EngineSpec":
        """Build a spec from a plain dict (e.g. parsed JSON); validates keys."""
        if not isinstance(data, dict):
            raise SpecError(f"engine spec must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                f"unknown engine-spec keys: {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "EngineSpec":
        """Load a spec from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise SpecError(f"cannot read engine spec {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON in engine spec {path!r}: {exc}") from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def override(self, **changes) -> "EngineSpec":
        """A copy with *changes* applied (validation re-runs); no-op → self."""
        if not changes:
            return self
        unknown = set(changes) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise SpecError(f"unknown engine-spec keys: {sorted(unknown)}")
        return dataclasses.replace(self, **changes)
