"""Tests for TIM sample-size determination and KPT estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError
from repro.graph.generators import erdos_renyi
from repro.rrset.sampler import RRSampler
from repro.rrset.tim import KPTEstimator, log_binomial, sample_size


class TestLogBinomial:
    def test_small_values_exact(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10))
        assert log_binomial(10, 0) == pytest.approx(0.0)
        assert log_binomial(10, 10) == pytest.approx(0.0)

    def test_symmetry(self):
        assert log_binomial(30, 7) == pytest.approx(log_binomial(30, 23))

    def test_invalid_rejected(self):
        with pytest.raises(EstimationError):
            log_binomial(5, 6)
        with pytest.raises(EstimationError):
            log_binomial(5, -1)


class TestSampleSize:
    def test_formula_value(self):
        # Direct evaluation of Eq. 8 for a hand-checked case.
        n, s, eps, ell, opt = 100, 2, 0.5, 1.0, 10.0
        expected = (8 + 2 * eps) * n * (
            ell * math.log(n) + log_binomial(n, s) + math.log(2)
        ) / (opt * eps * eps)
        assert sample_size(n, s, eps, ell, opt, theta_cap=None) == math.ceil(expected)

    def test_monotone_in_s(self):
        a = sample_size(100, 1, 0.5, 1.0, 10.0, theta_cap=None)
        b = sample_size(100, 5, 0.5, 1.0, 10.0, theta_cap=None)
        assert b > a

    def test_decreasing_in_eps_and_opt(self):
        base = sample_size(100, 2, 0.3, 1.0, 10.0, theta_cap=None)
        assert sample_size(100, 2, 0.6, 1.0, 10.0, theta_cap=None) < base
        assert sample_size(100, 2, 0.3, 1.0, 20.0, theta_cap=None) < base

    def test_cap_applies(self):
        assert sample_size(1000, 10, 0.1, 1.0, 1.0, theta_cap=77) == 77

    def test_validation(self):
        with pytest.raises(EstimationError):
            sample_size(0, 1, 0.5, 1.0, 1.0)
        with pytest.raises(EstimationError):
            sample_size(10, 0, 0.5, 1.0, 1.0)
        with pytest.raises(EstimationError):
            sample_size(10, 11, 0.5, 1.0, 1.0)
        with pytest.raises(EstimationError):
            sample_size(10, 1, -0.5, 1.0, 1.0)
        with pytest.raises(EstimationError):
            sample_size(10, 1, 0.5, 1.0, 0.0)


class TestKPT:
    def _estimator(self, n=60, p=0.2, seed=1, **kwargs):
        g = erdos_renyi(n, 0.1, seed=seed)
        sampler = RRSampler(g, np.full(g.m, p))
        return g, KPTEstimator(sampler, ell=1.0, rng=seed, **kwargs)

    def test_estimate_at_least_one(self):
        _, kpt = self._estimator(p=0.0)
        assert kpt.estimate(1) >= 1.0

    def test_estimate_cached(self):
        _, kpt = self._estimator()
        first = kpt.estimate(2)
        assert kpt.estimate(2) == first

    def test_is_lower_bound_of_opt(self):
        # OPT_s <= n always, and must upper-bound the KPT estimate w.h.p.
        g, kpt = self._estimator(n=80, p=0.3, seed=2)
        estimate = kpt.estimate(3)
        assert 1.0 <= estimate <= g.n

    def test_monotone_in_s_statistic(self):
        # kappa(R) grows with s, so the bound should not decrease.
        _, kpt = self._estimator(n=80, p=0.3, seed=3)
        assert kpt.estimate(5) >= kpt.estimate(1) - 1e-9

    def test_respects_sampling_budget(self):
        _, kpt = self._estimator(max_samples=50)
        kpt.estimate(1)
        assert len(kpt._widths) <= 50

    def test_trivial_graph(self):
        g = erdos_renyi(2, 0.0, seed=4)
        sampler = RRSampler(g, np.empty(0))
        kpt = KPTEstimator(sampler, rng=0)
        assert kpt.estimate(1) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    arc_p=st.floats(0.0, 0.4),
    prob_scale=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    # Small budgets run out before the first stage's count (9 sets at
    # n = 2, 65 at n = 40), so the budget branch is exercised too.
    max_samples=st.one_of(st.integers(1, 80), st.just(20_000)),
    steps=st.lists(st.integers(1, 6), min_size=1, max_size=6),
)
def test_estimate_past_s1_draws_nothing(n, arc_p, prob_scale, seed, max_samples, steps):
    """After ``estimate(1)``, calls at larger ``s`` reuse its widths.

    κ is non-decreasing in ``s``, so their stage loops stop no later
    than the ``s = 1`` loop: no width is drawn and the generator is
    untouched.  This is what lets the engine skip KPT calls whose θ the
    cap fixes anyway.  Every bound is ``max(1, n · mean / 2)`` over a
    mean of κ ≤ 1, so none exceeds ``max(1, n / 2)``.
    """
    g = erdos_renyi(n, arc_p, seed=seed)
    probs = np.random.default_rng(seed + 1).random(g.m) * prob_scale
    kpt = KPTEstimator(RRSampler(g, probs), rng=seed, max_samples=max_samples)
    ceiling = max(1.0, n / 2.0)
    assert 1.0 <= kpt.estimate(1) <= ceiling
    drawn = kpt._widths.size
    state = kpt.rng.bit_generator.state
    s = 1
    for step in steps:
        s += step
        assert 1.0 <= kpt.estimate(s) <= ceiling
        assert kpt._widths.size == drawn
        assert kpt.rng.bit_generator.state == state
