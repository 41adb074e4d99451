"""Property-based tests (hypothesis) for the submodular toolkit.

These pin down the invariants the paper's theory leans on: coverage
functions are monotone submodular, modular functions have zero curvature,
and the curvature chain of Iyer et al. holds for arbitrary instances.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.submodular.checks import (
    average_curvature,
    is_monotone,
    is_submodular,
    set_curvature,
    total_curvature,
)
from repro.submodular.functions import (
    CoverageFunction,
    ModularFunction,
    ScaledFunction,
    SumFunction,
)

# Strategy: a random cover map over <= 6 elements and <= 8 items.
covers = st.dictionaries(
    keys=st.integers(0, 5),
    values=st.frozensets(st.integers(0, 7), max_size=5),
    min_size=1,
    max_size=6,
)

weightings = st.dictionaries(
    keys=st.integers(0, 5),
    values=st.floats(0.0, 10.0, allow_nan=False),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(covers)
def test_coverage_monotone_and_submodular(cover):
    f = CoverageFunction(cover)
    assert is_monotone(f)
    assert is_submodular(f)


@settings(max_examples=40, deadline=None)
@given(weightings)
# A weight tiny next to the total once read as curvature 5.5e-7.
@example({0: 4.0, 1: 1.7954110391737258e-09, 2: 4.0})
def test_modular_zero_curvature(weights):
    f = ModularFunction(weights)
    assert total_curvature(f) <= 1e-7
    assert is_monotone(f)
    assert is_submodular(f)


@settings(max_examples=40, deadline=None)
@given(covers, st.floats(0.1, 5.0))
def test_scaling_preserves_curvature(cover, scale):
    f = CoverageFunction(cover)
    g = ScaledFunction(f, scale)
    assert abs(total_curvature(g) - total_curvature(f)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(covers, st.integers(0, 2**6 - 1))
def test_curvature_chain(cover, mask):
    """0 <= avg-curvature(S) <= curvature(S) <= total curvature <= 1."""
    f = CoverageFunction(cover)
    elements = sorted(f.ground_set)
    subset = {e for k, e in enumerate(elements) if mask >> k & 1}
    k_hat = average_curvature(f, subset)
    k_s = set_curvature(f, subset)
    k_total = total_curvature(f)
    assert -1e-9 <= k_hat <= k_s + 1e-9
    assert k_s <= k_total + 1e-9
    assert k_total <= 1.0


@settings(max_examples=40, deadline=None)
@given(covers, weightings)
def test_sum_of_monotone_submodular_is_monotone_submodular(cover, weights):
    """pi + c stays monotone submodular (the payment-function argument)."""
    ground = set(cover) | set(weights)
    full_cover = {x: cover.get(x, frozenset()) for x in ground}
    full_weights = {x: weights.get(x, 0.0) for x in ground}
    rho = SumFunction([CoverageFunction(full_cover), ModularFunction(full_weights)])
    assert is_monotone(rho)
    assert is_submodular(rho)


@settings(max_examples=40, deadline=None)
@given(covers)
def test_marginals_consistent_with_values(cover):
    f = CoverageFunction(cover)
    elements = sorted(f.ground_set)
    subset = frozenset(elements[: len(elements) // 2])
    for x in elements:
        if x in subset:
            assert f.marginal(x, subset) == 0.0
        else:
            assert f.marginal(x, subset) == f(subset | {x}) - f(subset)
