"""Conditioned-walk ladder: psi_j(x) family, weak/strict q recursions, and
the U_j expansion against the killed DP table."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluctuator import basis, conditioned, edgeworth, oracle, walk

import oracle_references as refs

N = 1 << 12
X_MAX = 8


def _traces(law, x_max, n):
    """p_n(x) for n = 0..n at x = 0..x_max, from one free sweep."""
    return oracle.delta_table(law, n, xs=range(x_max + 1))[1]


@pytest.fixture(scope="module")
def p_lazy(lazy):
    return _traces(lazy, X_MAX, N)


@pytest.fixture(scope="module")
def p_skewed(skewed):
    return _traces(skewed, X_MAX, N)


@pytest.fixture(scope="module")
def table_skewed(skewed):
    return oracle.conditioned_table(skewed, N, X_MAX, strict=False)


def _weak_V(law, x_max):
    """The weak renewal function V the weak q ladder reads."""
    return conditioned.weak_renewal(oracle.ladder_renewal(law, x_max))


def _theta0(law):
    """theta_0, the factor of q_1 = -2 theta_0 V."""
    return edgeworth.theta_polys(law, 6)[0].coefficients[0]


def test_psi_odd_are_theta_values(skewed, p_skewed):
    thetas = edgeworth.theta_polys(skewed, 6)
    px = conditioned.psi_x(thetas, 3, p_skewed[3], j_max=3)
    assert px[1] == pytest.approx(float(thetas[1](3)), rel=1e-12)
    assert px[3] == pytest.approx(float(thetas[2](3)), rel=1e-12)


def test_psi_minus_one_is_theta0(lazy, p_lazy):
    thetas = edgeworth.theta_polys(lazy, 6)
    px = conditioned.psi_x(thetas, 2, p_lazy[2], j_max=0)
    assert px[-1] == pytest.approx(_theta0(lazy), rel=1e-14)


def test_weak_q0_is_renewal_increment(lazy, p_lazy):
    q = conditioned.q_ladder(lazy, p_lazy, X_MAX, L=1, strict=False)
    # lazy walk: V(x) = x exactly, so q_0(x) = 1 for x >= 1
    np.testing.assert_allclose(_weak_V(lazy, X_MAX)[1:], np.arange(1, X_MAX + 1), rtol=1e-12)
    np.testing.assert_allclose(q[0, 1:], 1.0, rtol=1e-12)


def test_strict_q0_from_ladder_renewal(lazy, skewed, p_lazy, p_skewed):
    for law, p in ((lazy, p_lazy), (skewed, p_skewed)):
        q = conditioned.q_ladder(law, p, X_MAX, L=1, strict=True)
        want = oracle.ladder_renewal(law, X_MAX)
        np.testing.assert_allclose(q[0], want, rtol=1e-12)
        np.testing.assert_allclose(q[1] / (-2.0 * _theta0(law)), np.cumsum(want), rtol=1e-12)


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


# double: Q = -(4z + 1)^2 / 24, a repeated root inside the circle
DOUBLE = walk.make_law(
    {-3: Fraction(1, 24), -2: Fraction(1, 4), -1: Fraction(1, 24), 1: Fraction(2, 3)}
)


def _dp_reference(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Closed column sums at horizon N and their change from N / 2, which
    bounds the reference's own truncation error (it falls about tenfold
    per doubling)."""
    full = np.array([refs.closed_sum(c) for c in cols])
    half = np.array([refs.closed_sum(c[: c.size // 2]) for c in cols])
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
    q = conditioned.q_ladder(law, {}, x_max, L=1)  # L = 1 reads no p_n(x)
    got = np.concatenate(([1.0], q[1, 1:] / (-2.0 * _theta0(law))))  # V(0) = 1
    assert (np.abs(got - V) <= 1e-8 * V + drift).all(), (got, V, drift)


@settings(max_examples=50, deadline=None)
@given(law=_mean_zero_laws())
def test_ladder_heights_wiener_hopf_moment(law):
    # E[H] E[H-bar] = sigma^2 / 2 for the weak ascending ladder height H and
    # the strict descending one H-bar, the weak ladder of the reversed walk
    # with its zero heights collapsed; no DP enters
    up, down = refs.ladder_heights(law), refs.ladder_heights(law.reverse())
    mean_up = np.arange(up.size) @ up
    mean_down = np.arange(down.size) @ down / (1.0 - down[0])
    assert mean_up * mean_down == pytest.approx(float(law.variance) / 2, rel=1e-13)
    assert min(up.min(), down.min()) > -1e-15


def test_q1_proportional_to_renewal(skewed, p_skewed):
    q = conditioned.q_ladder(skewed, p_skewed, X_MAX, L=1, strict=False)
    np.testing.assert_allclose(
        q[1, 1:], -2.0 * _theta0(skewed) * _weak_V(skewed, X_MAX)[1:], rtol=1e-12
    )


def _decay(table, U, x, n_grid, J):
    res = conditioned.u_expansion_eval(table, U, x, n_grid, J=J)
    return refs.decay_exponent(n_grid, res["error"])


def test_u_expansion_one_term_slope(skewed, p_skewed, table_skewed):
    """One-term ladder signature: |b_n(x) - U_1(x) a_n^(2)| decays ~ n^(-5/2)."""
    q = conditioned.q_ladder(skewed, p_skewed, X_MAX, L=1, strict=False)
    n_grid = np.unique(np.geomspace(N // 8, N, 40).astype(int))
    for x in (1, 4):
        assert _decay(table_skewed, q[1::2], x, n_grid, J=1) > 2.2


def test_u_expansion_two_terms_improve(skewed, p_skewed, table_skewed):
    q = conditioned.q_ladder(skewed, p_skewed, X_MAX, L=3, strict=False)
    n_grid = np.unique(np.geomspace(N // 8, N, 40).astype(int))
    for x in (1, 4):
        one = _decay(table_skewed, q[1::2], x, n_grid, J=1)
        two = _decay(table_skewed, q[1::2], x, n_grid, J=2)
        assert two > one + 0.5


def test_one_term_ladder_reads_no_psi(monkeypatch):
    # L < 2 reads no psi_j; their tail fits would refuse this law's
    # slowly decaying short-horizon remainders
    calls = []
    psi_x = conditioned.psi_x
    monkeypatch.setattr(
        conditioned, "psi_x", lambda *a, **k: calls.append(1) or psi_x(*a, **k)
    )
    law = walk.LatticeLaw({-1: Fraction(1, 100), 0: Fraction(49, 50), 1: Fraction(1, 100)})
    q = conditioned.q_ladder(law, _traces(law, 6, 64), 6, L=1)
    assert q.shape == (2, 7) and calls == []


def test_weak_ladder_is_the_standalone_psi_recursion(skewed, p_skewed):
    # the weak recursion as usually written: a standalone psi_(l-2)(x) term
    # and y = 1..x-1, against the shared recursion's y = x pairing with q_0(0) = 1
    L = 4
    got = conditioned.q_ladder(skewed, p_skewed, X_MAX, L=L)
    thetas = edgeworth.theta_polys(skewed, 6)
    psis = {y: conditioned.psi_x(thetas, y, p_skewed[y], L - 2) for y in range(1, X_MAX + 1)}
    q = got.copy()
    q[0, 0] = 0.0
    for ell in range(2, L + 1):
        for x in range(1, X_MAX + 1):
            acc = psis[x][ell - 2] + sum(
                psis[y][j] * q[ell - 2 - j, x - y] for y in range(1, x) for j in range(-1, ell - 1)
            )
            q[ell, x] = -2.0 / ell * acc
    np.testing.assert_allclose(got[2:, 1:], q[2:, 1:], rtol=1e-13, atol=0)


def test_ladder_needs_enough_thetas(lazy, p_lazy):
    with pytest.raises(basis.TailNotDecayed):
        conditioned.psi_x(edgeworth.theta_polys(lazy, 6), 1, p_lazy[1], j_max=12)


def _check_against_the_loops(law, x_max: int, n: int, L: int = 4) -> None:
    """psi_x equals its first form and q_ladder its four-loop recursion, to
    1e-13 of each row's sup, weak and strict; a law whose tails do not
    decay is refused by both forms."""
    traces = _traces(law, x_max, n)
    thetas = edgeworth.theta_polys(law, 6)
    try:
        psis = {y: refs.psi_x(thetas, y, traces[y], L - 2) for y in range(x_max + 1)}
    except basis.TailNotDecayed:
        with pytest.raises(basis.TailNotDecayed):
            conditioned.q_ladder(law, traces, x_max, L, strict=True)
        return
    for y, want in psis.items():
        assert conditioned.psi_x(thetas, y, traces[y], L - 2) == want, y
    for strict in (False, True):
        for ell in range(L + 1):
            got = conditioned.q_ladder(law, traces, x_max, ell, strict)
            want = refs.q_ladder_loops(got, psis, strict)
            sup = np.abs(want).max(axis=1, keepdims=True)
            assert (np.abs(got - want) <= 1e-13 * sup).all(), (strict, ell, got - want)


@pytest.mark.parametrize("law", [walk.lazy_walk(), walk.skewed_walk(), DOUBLE],
                         ids=["lazy", "skewed", "double"])
def test_q_ladder_convolutions_match_the_loops(law):
    _check_against_the_loops(law, x_max=24, n=N)


@settings(max_examples=10, deadline=None)
@given(law=_mean_zero_laws())
def test_q_ladder_convolutions_match_the_loops_random_laws(law):
    _check_against_the_loops(law, x_max=12, n=1024)
