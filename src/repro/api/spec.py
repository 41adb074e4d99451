"""`EngineSpec`: one validated bundle of every TI-engine knob.

Before this class existed the ~12 engine parameters (``eps``, ``ell``,
``window``, ``theta_cap``, ``opt_lower``, ``kpt_max_samples``,
``share_samples``, ``lazy_candidates``, ``sampler_backend``,
``workers``, ``seed``) were re-threaded by hand through four wrapper
functions, :class:`~repro.experiments.config.ExperimentConfig`, the
grid runner and the CLI — with visible drift (knobs reachable from one
layer but not another).  An :class:`EngineSpec` is the single compiled
form all of those surfaces produce and every solve consumes:

* **frozen** — a spec never mutates; derive variants with
  :meth:`override` (or :func:`dataclasses.replace`), which re-validates;
* **validated** — every constraint the engine would reject is rejected
  at construction, with :class:`~repro.errors.SpecError`;
* **JSON round-trip** — ``EngineSpec.from_dict(spec.to_dict())``
  equals ``spec`` and ``to_dict()`` is ``json.dumps``-able (per-ad
  ``opt_lower`` arrays become lists; tuples normalize back on load).
  CI checks this invariant on every committed ``specs/*.json``.

The field set intentionally mirrors :class:`~repro.core.ti_engine.TIEngine`'s
keyword surface minus the two algorithm-defining rules (candidate rule
and selector come from the :mod:`~repro.api.registry`) and per-call
data such as ``blocked`` masks, which describe the query, not the
engine configuration.

Three fields are special inside an
:class:`~repro.api.session.AllocationSession` (and therefore inside
the grid runner's ``warm_per_dataset`` execution mode, which drives
every cell of a dataset through one session): ``sampler_backend``,
``workers`` and ``rr_bytes_budget`` are pinned by the
session's base spec — live sampler backends and RR stores persist
inside the warm state, so per-solve specs cannot flip them
mid-session.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SpecError
from repro.rrset.backend import BACKENDS
from repro.rrset.tim import DEFAULT_THETA_CAP

#: Fields whose values already serialize to JSON scalars unchanged.
_SCALAR_FIELDS = (
    "eps",
    "ell",
    "window",
    "theta_cap",
    "kpt_max_samples",
    "share_samples",
    "lazy_candidates",
    "sampler_backend",
    "workers",
    "rr_bytes_budget",
    "seed",
)


@dataclass(frozen=True)
class EngineSpec:
    """Every engine knob of one solve, frozen and validated.

    Defaults equal :class:`~repro.core.ti_engine.TIEngine`'s, so
    ``EngineSpec()`` configures exactly the engine's out-of-the-box
    behavior.  ``opt_lower`` is ``"kpt"`` (run TIM's estimator), a
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
    lazy_candidates: bool = True
    sampler_backend: str = "serial"
    workers: int | None = None
    rr_bytes_budget: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise SpecError(f"eps must be positive, got {self.eps}")
        if not self.ell > 0:
            raise SpecError(f"ell must be positive, got {self.ell}")
        self._set_int("window", minimum=1, optional=True)
        self._set_int("theta_cap", minimum=1, optional=True)
        self._set_int("kpt_max_samples", minimum=1)
        if self.sampler_backend not in BACKENDS:
            raise SpecError(
                f"unknown sampler_backend {self.sampler_backend!r}; "
                f"options: {BACKENDS}"
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
        value = getattr(self, name)
        if value is None:
            if optional:
                return
            raise SpecError(f"{name} must be an integer, got None")
        if isinstance(value, bool) or not isinstance(
            value, (int, np.integer, float)
        ):
            raise SpecError(f"{name} must be an integer, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise SpecError(f"{name} must be an integer, got {value!r}")
        value = int(value)
        if value < minimum:
            raise SpecError(f"{name} must be >= {minimum}, got {value}")
        object.__setattr__(self, name, value)

    @staticmethod
    def _normalize_opt_lower(value):
        # Zero is allowed: the engine documents a floor of 1.0 on every
        # bound (legacy wrappers always accepted clamped zeros), so only
        # negatives and non-finite values are genuine spec errors.
        if isinstance(value, str):
            if value != "kpt":
                raise SpecError(f"unknown opt_lower spec {value!r}; options: 'kpt'")
            return value
        if isinstance(value, (list, tuple, np.ndarray)):
            bounds = tuple(float(v) for v in value)
            if not bounds:
                raise SpecError("opt_lower sequence must be non-empty")
            if any(b < 0 or not math.isfinite(b) for b in bounds):
                raise SpecError("opt_lower bounds must all be finite and >= 0")
            return bounds
        try:
            scalar = float(value)
        except (TypeError, ValueError):
            raise SpecError(
                f"opt_lower must be 'kpt', a number, or a sequence of "
                f"per-ad bounds; got {value!r}"
            ) from None
        if scalar < 0 or not math.isfinite(scalar):
            raise SpecError(f"opt_lower must be finite and >= 0, got {scalar}")
        return scalar

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
    # Derivation / compilation
    # ------------------------------------------------------------------
    def override(self, **changes) -> "EngineSpec":
        """A copy with *changes* applied (validation re-runs); no-op → self."""
        if not changes:
            return self
        unknown = set(changes) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise SpecError(f"unknown engine-spec keys: {sorted(unknown)}")
        return dataclasses.replace(self, **changes)

    def engine_kwargs(self) -> dict:
        """The spec as :class:`~repro.core.ti_engine.TIEngine` keyword args."""
        opt_lower = self.opt_lower
        return dict(
            eps=self.eps,
            ell=self.ell,
            window=self.window,
            theta_cap=self.theta_cap,
            opt_lower=list(opt_lower) if isinstance(opt_lower, tuple) else opt_lower,
            kpt_max_samples=self.kpt_max_samples,
            share_samples=self.share_samples,
            lazy_candidates=self.lazy_candidates,
            sampler_backend=self.sampler_backend,
            workers=self.workers,
            rr_bytes_budget=self.rr_bytes_budget,
            seed=self.seed,
        )
