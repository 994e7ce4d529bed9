"""Conditioned-walk ladder: psi_j(x) family, weak/strict q recursions, and
the U_j expansion against the killed DP table."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluctuator import conditioned, oracle, walk

N = 1 << 12
X_MAX = 8


@pytest.fixture(scope="module")
def ws_lazy(lazy):
    return conditioned.make_workspace(lazy, x_max=X_MAX, N=N)


@pytest.fixture(scope="module")
def ws_skewed(skewed):
    return conditioned.make_workspace(skewed, x_max=X_MAX, N=N)


def test_psi_odd_are_theta_values(ws_skewed):
    px = conditioned.psi_x(ws_skewed, 3, j_max=3)
    assert px[1] == pytest.approx(float(ws_skewed.thetas[1](3)), rel=1e-12)
    assert px[3] == pytest.approx(float(ws_skewed.thetas[2](3)), rel=1e-12)


def test_psi_minus_one_is_theta0(ws_lazy):
    px = conditioned.psi_x(ws_lazy, 2, j_max=0)
    assert px[-1] == pytest.approx(ws_lazy.theta0, rel=1e-14)


def test_weak_q0_is_renewal_increment(ws_lazy):
    lad = conditioned.q_ladder(ws_lazy, L=1, strict=False)
    # lazy walk: V(x) = x exactly, so q_0(x) = 1 for x >= 1
    np.testing.assert_allclose(lad.V[1:], np.arange(1, X_MAX + 1), rtol=1e-12)
    np.testing.assert_allclose(lad.q[0, 1:], 1.0, rtol=1e-12)


def test_strict_q0_from_ladder_renewal(ws_lazy, ws_skewed):
    for ws in (ws_lazy, ws_skewed):
        lad = conditioned.q_ladder(ws, L=1, strict=True)
        want = oracle.ladder_renewal(ws.law, X_MAX)
        np.testing.assert_allclose(lad.q[0], want, rtol=1e-12)
        np.testing.assert_allclose(lad.V, np.cumsum(want), rtol=1e-12)


@st.composite
def _mean_zero_laws(draw):
    """Mean-zero span-1 rational laws on [-3, 3]."""
    w = {v: draw(st.integers(0, 4)) for v in (-3, -2, -1, 1, 2, 3)}
    for side in (-1, 1):
        if not any(c for v, c in w.items() if v * side > 0):
            w[side] = 1
    left = sum(-v * c for v, c in w.items() if v < 0)
    right = sum(v * c for v, c in w.items() if v > 0)
    weights = {v: c * (right if v < 0 else left) for v, c in w.items() if c}
    weights[0] = draw(st.integers(0, 4)) * (left + right)
    total = sum(weights.values())
    law = walk.LatticeLaw({v: Fraction(c, total) for v, c in weights.items()})
    assume(law.span == 1)
    return law


def _closed_sum(col: np.ndarray) -> float:
    """sum_(n>=1) col[n - 1] with the a-basis tail closure."""
    tail, _, _ = oracle.series_tail_sum(col, first_n=1)
    return float(col.sum()) + tail


def _dp_reference(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Closed column sums at horizon N and their change from N / 2, which
    bounds the reference's own truncation error (it falls about tenfold
    per doubling)."""
    full = np.array([_closed_sum(c) for c in cols])
    half = np.array([_closed_sum(c[: c.size // 2]) for c in cols])
    return full, np.abs(full - half)


@settings(max_examples=15, deadline=None)
@given(law=_mean_zero_laws())
def test_renewal_functions_match_dp_random_laws(law):
    # the closed-form ladder renewal against the horizon-N DP route it
    # replaced: column sums of the killed tables plus fitted tails
    n, x_max = 4096, 6
    strict = oracle.conditioned_table(law, n, x_max, strict=True)
    green, drift = _dp_reference([strict[1:, x] for x in range(x_max + 1)])
    green[0] += 1.0  # the n = 0 atom
    u = oracle.ladder_renewal(law, x_max)
    assert (np.abs(u - green) <= 1e-8 * green + drift).all(), (u, green, drift)
    weak = oracle.conditioned_table(law, n, x_max, strict=False)
    V, drift = _dp_reference([weak[1:, :x].sum(axis=1) for x in range(x_max + 1)])
    V[1:] += 1.0  # V(x) = 1 + sum_n P(0 < S_n < x, tau > n); V(0) = 1
    V[0], drift[0] = 1.0, 0.0
    got = conditioned.q_ladder(conditioned.make_workspace(law, x_max, N=n), L=1).V
    assert (np.abs(got - V) <= 1e-8 * V + drift).all(), (got, V, drift)


@settings(max_examples=50, deadline=None)
@given(law=_mean_zero_laws())
def test_ladder_heights_wiener_hopf_moment(law):
    # E[H] E[H-bar] = sigma^2 / 2 for the weak ascending ladder height H and
    # the strict descending one H-bar, the weak ladder of the reversed walk
    # with its zero heights collapsed; no DP enters
    up, down = oracle.ladder_heights(law), oracle.ladder_heights(law.reverse())
    mean_up = np.arange(up.size) @ up
    mean_down = np.arange(down.size) @ down / (1.0 - down[0])
    assert mean_up * mean_down == pytest.approx(float(law.variance) / 2, rel=1e-13)
    assert min(up.min(), down.min()) > -1e-15


def test_q1_proportional_to_renewal(ws_skewed):
    lad = conditioned.q_ladder(ws_skewed, L=1, strict=False)
    np.testing.assert_allclose(
        lad.q[1, 1:], -2.0 * ws_skewed.theta0 * lad.V[1:], rtol=1e-12
    )


def test_u_expansion_one_term_slope(ws_skewed):
    """One-term ladder signature: |b_n(x) - U_1(x) a_n^(2)| decays ~ n^(-5/2)."""
    lad = conditioned.q_ladder(ws_skewed, L=1, strict=False)
    n_grid = np.unique(np.geomspace(N // 8, N, 40).astype(int))
    for x in (1, 4):
        res = conditioned.u_expansion_eval(ws_skewed, lad, x, n_grid, J=1)
        assert res["decay_exponent"] > 2.2


def test_u_expansion_two_terms_improve(ws_skewed):
    lad = conditioned.q_ladder(ws_skewed, L=3, strict=False)
    n_grid = np.unique(np.geomspace(N // 8, N, 40).astype(int))
    for x in (1, 4):
        one = conditioned.u_expansion_eval(ws_skewed, lad, x, n_grid, J=1)
        two = conditioned.u_expansion_eval(ws_skewed, lad, x, n_grid, J=2)
        assert two["decay_exponent"] > one["decay_exponent"] + 0.5


def test_gf_fit_cross_check(ws_lazy):
    lad = conditioned.q_ladder(ws_lazy, L=3, strict=False)
    gaps = conditioned.gf_fit_check(ws_lazy, lad, x=2)
    # GF fit near s = 1 is ill-conditioned; only the leading entries bind
    assert abs(gaps[0]) < 5e-3 and abs(gaps[1]) < 0.1


def test_ladder_needs_enough_thetas(ws_lazy):
    with pytest.raises(oracle.TailNotDecayed):
        conditioned.psi_x(ws_lazy, 1, j_max=12)
