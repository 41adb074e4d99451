"""TIM-style sample-size determination (Tang et al. [34], adapted).

Equation 8 of the paper fixes, for seed-set size ``s`` and accuracy
``ε``, the number of RR sets

    ``L(s, ε) = (8 + 2ε) · n · (ℓ·ln n + ln C(n, s) + ln 2) / (OPT_s · ε²)``

after which ``|n·F_R(S) − σ(S)| < (ε/2)·OPT_s`` holds w.p. at least
``1 − n^{−ℓ} / C(n, s)`` for *every* ``|S| ≤ s`` — the oracle property
TI-CARM/TI-CSRM rely on, which IMM/SSA samples are too small to provide.

``OPT_s`` is unknown; TIM lower-bounds it with the KPT estimation
algorithm, reproduced here as :class:`KPTEstimator`.  Two pragmatic
adaptations (documented in docs/ARCHITECTURE.md §5):

* sampled widths are cached and reused when ``s`` changes — the
  ``κ(R) = 1 − (1 − w(R)/m)^s`` statistic is recomputable from stored
  widths, so growing ``s`` (Eq. 10) does not resample;
* a hard ``theta_cap`` bounds the sample size so pure-Python runs stay
  tractable; the cap widens confidence intervals.

The cap also lets the engine skip KPT calls it makes moot: for
``s > 1`` it does not ask KPT when θ is capped even at
:attr:`KPTEstimator.ceiling`, the largest bound KPT can return.  That
is exact because θ is non-increasing in the bound, and because after
``estimate(1)`` no ``estimate(s)`` with ``s > 1`` draws a width (κ is
non-decreasing in ``s``, so each stage loop stops no later than the
``s = 1`` loop did).  ``s = 1`` always asks KPT: its width draws share
the ad's generator with the RR sets.  See ``TIEngine._theta_for``.
"""

from __future__ import annotations

import math

import numpy as np

from repro._rng import as_generator
from repro.errors import EstimationError
from repro.rrset.sampler import RRSampler

DEFAULT_THETA_CAP = 200_000


def log_binomial(n: int, k: int) -> float:
    """``ln C(n, k)`` computed stably via ``lgamma``."""
    if k < 0 or k > n:
        raise EstimationError(f"binomial coefficient C({n}, {k}) undefined")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def sample_size(
    n: int,
    s: int,
    eps: float,
    ell: float,
    opt_lower: float,
    theta_cap: int | None = DEFAULT_THETA_CAP,
) -> int:
    """Evaluate Eq. 8, ``L(s, ε)``, with ``OPT_s ≥ opt_lower``.

    Returns at least 1; *theta_cap* truncates (``None`` disables the cap).
    """
    if n < 1:
        raise EstimationError(f"n must be positive, got {n}")
    if not 1 <= s <= n:
        raise EstimationError(f"seed size s must be in [1, {n}], got {s}")
    if eps <= 0:
        raise EstimationError(f"eps must be positive, got {eps}")
    if opt_lower <= 0:
        raise EstimationError(f"opt_lower must be positive, got {opt_lower}")
    numerator = (8.0 + 2.0 * eps) * n * (ell * math.log(n) + log_binomial(n, s) + math.log(2.0))
    theta = int(math.ceil(numerator / (opt_lower * eps * eps)))
    theta = max(theta, 1)
    if theta_cap is not None:
        theta = min(theta, int(theta_cap))
    return theta


class KPTEstimator:
    """Lower bound on ``OPT_s`` via TIM's KPT estimation (Alg. 2 of [34]).

    Repeatedly samples RR sets and evaluates the width statistic
    ``κ(R) = 1 − (1 − w(R)/m)^s``; at stage ``i`` it checks whether the
    mean over ``c_i ∝ 2^i`` samples exceeds ``2^{-i}``, in which case
    ``n · mean / 2`` is, w.h.p., a lower bound on ``OPT_s``.  The sampled
    widths are retained so :meth:`estimate` for a *different* ``s``
    re-evaluates the statistic without fresh samples.
    """

    def __init__(
        self,
        sampler,
        ell: float = 1.0,
        rng=None,
        max_samples: int = 20_000,
    ) -> None:
        """*sampler* is any :class:`~repro.rrset.sampler.SamplerBackend`
        — only ``sample_batch_widths`` and the ``graph`` attribute are
        used, so KPT estimation draws through the engine's sampler."""
        self.sampler = sampler
        self.ell = float(ell)
        self.rng = as_generator(rng)
        self.max_samples = int(max_samples)
        self._widths = np.empty(0, dtype=np.float64)
        self._cache: dict[int, float] = {}

    @property
    def ceiling(self) -> float:
        """The largest value :meth:`estimate` can return, ``max(1, n / 2)``.

        Every bound is ``max(1, n · mean / 2)`` over a mean of
        ``κ(R) ≤ 1``, so no call, whatever ``s``, exceeds this.
        """
        return max(1.0, self.sampler.graph.n / 2.0)

    def _ensure_samples(self, count: int) -> None:
        count = min(count, self.max_samples)
        deficit = count - self._widths.size
        if deficit > 0:
            # One flat batch per stage: roots are drawn vectorized and the
            # member ids are discarded, only widths are retained.
            widths = self.sampler.sample_batch_widths(deficit, self.rng)
            self._widths = np.concatenate(
                (self._widths, np.asarray(widths, dtype=np.float64))
            )

    def estimate(self, s: int) -> float:
        """Lower bound for ``OPT_s`` (at least 1.0, since any seed reaches itself)."""
        if s in self._cache:
            return self._cache[s]
        n = self.sampler.graph.n
        m = self.sampler.graph.m
        if m == 0 or n < 2:
            self._cache[s] = 1.0
            return 1.0
        log2n = max(math.log2(n), 1.0)
        base = 6.0 * self.ell * math.log(n) + 6.0 * math.log(log2n)
        result = 1.0
        max_stage = max(int(math.ceil(log2n)) - 1, 1)
        for stage in range(1, max_stage + 1):
            c_i = int(math.ceil(base * (2 ** stage)))
            self._ensure_samples(c_i)
            widths = self._widths[:c_i]
            if widths.size == 0:
                break
            kappa = 1.0 - np.power(1.0 - widths / m, s)
            mean = float(kappa.mean())
            if mean > 1.0 / (2 ** stage):
                result = max(1.0, n * mean / 2.0)
                break
            if self._widths.size >= self.max_samples and c_i > self.max_samples:
                # Sampling budget exhausted before the threshold test could
                # trigger; fall back on the best certified bound so far.
                result = max(1.0, n * mean / 2.0)
                break
        self._cache[s] = result
        return result
