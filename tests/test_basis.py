"""a-basis calculus: exact identities, float evaluators, tail sums, and the
power-to-basis conversion tables."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctuator import basis


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=80))
def test_difference_law(j, n):
    """a_n^(j) - a_(n-1)^(j) = a_n^(j+1), exact."""
    a_j = basis.a_seq(j, n).values
    a_j1 = basis.a_seq(j + 1, n).values
    assert a_j[n] - a_j[n - 1] == a_j1[n]


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=60))
def test_tail_sum_telescopes(j, n):
    """sum_(k>=n) a_k^(j) = -a_(n-1)^(j-1) checked against a long partial sum
    plus the next-level tail."""
    N = n + 200
    a_j = basis.a_seq(j, N).values
    partial = sum(a_j[n : N + 1], Fraction(0))
    assert partial + basis.tail_sum(j, N + 1) == basis.tail_sum(j, n)


def test_generating_function_low_orders():
    # (1-s)^(-1/2): central binomials / 4^n
    a1 = basis.a_seq(1, 6).values
    assert a1[3] == Fraction(math.comb(6, 3), 4**3)
    # (1-s)^(1/2): a_0 = 1, a_1 = -1/2
    a2 = basis.a_seq(2, 3).values
    assert a2[0] == 1 and a2[1] == Fraction(-1, 2)


def test_a_float_matches_exact():
    for j in (1, 2, 3, 5):
        exact = np.array([float(v) for v in basis.a_seq(j, 50).values])
        np.testing.assert_allclose(basis.a_float(j, 50), exact, rtol=1e-13)


def test_a_value_pointwise():
    for j in (1, 2, 4):
        seq = basis.a_seq(j, 30).values
        for n in (0, 1, 7, 30):
            assert basis.a_value(j, n) == pytest.approx(float(seq[n]), rel=1e-12)


def test_weighted_tail_sum_against_brute_force():
    N, j, p = 64, 5, 1
    big = 400_000
    vals = basis.a_float(j, big)
    brute = float(np.sum(np.arange(N + 1, big + 1, dtype=float) ** p * vals[N + 1 :]))
    assert basis.weighted_tail_sum(p, N, j) == pytest.approx(brute, rel=1e-8)


def test_weighted_tail_needs_depth():
    with pytest.raises(ValueError):
        basis.weighted_tail_sum(2, 16, 3)  # needs j >= p + 2


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=1, max_value=3))
def test_power_to_shifted_basis_reproduces_power(j):
    """n^(-(j-1/2)) = sum_k gamma_k a_(n-1)^(k) inside the fit window.

    Relative accuracy drops with j: the target shrinks like n^(-j+1/2)
    while the truncation floor is set by the dropped a^(j+m) column.
    """
    rel = {1: 1e-10, 2: 1e-8, 3: 1e-4}[j]
    conv = basis.power_to_shifted_basis(j, m=4)
    for n in (1000, 2000, 4000):
        target = n ** (-(j - 0.5))
        approx = sum(
            g * basis.a_value(k, n - 1) for k, g in conv.coefficients.items()
        )
        assert approx == pytest.approx(target, rel=rel)


def test_power_to_shifted_basis_is_fitted_once():
    """Repeated conversions share one read-only entry that equals a fresh fit."""
    conv = basis.power_to_shifted_basis(2, 3, N_fit=1 << 12)
    assert basis.power_to_shifted_basis(2, 3, N_fit=1 << 12) is conv
    with pytest.raises(TypeError):
        conv.coefficients[2] = 0.0
    coeffs, slope = basis._fit_on_basis(2, 3, 1 << 12)
    assert dict(conv.coefficients) == coeffs
    assert conv.residual_decay_exponent == slope
