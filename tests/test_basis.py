"""a-basis calculus: exact identities, float evaluators, tail sums, and the
power-to-basis conversion tables."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from fluctuator import basis

import oracle_references as refs


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=80))
def test_difference_law(j, n):
    """a_n^(j) - a_(n-1)^(j) = a_n^(j+1), exact."""
    a_j = refs.a_seq(j, n)
    a_j1 = refs.a_seq(j + 1, n)
    assert a_j[n] - a_j[n - 1] == a_j1[n]


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=60))
def test_tail_sum_telescopes(j, n):
    """sum_(k>=n) a_k^(j) = -a_(n-1)^(j-1) checked against a long partial sum
    plus the next-level tail."""
    N = n + 200
    a_j = refs.a_seq(j, N)
    partial = sum(a_j[n : N + 1], Fraction(0))
    assert partial + refs.tail_sum(j, N + 1) == refs.tail_sum(j, n)


def test_generating_function_low_orders():
    # (1-s)^(-1/2): central binomials / 4^n
    a1 = refs.a_seq(1, 6)
    assert a1[3] == Fraction(math.comb(6, 3), 4**3)
    # (1-s)^(1/2): a_0 = 1, a_1 = -1/2
    a2 = refs.a_seq(2, 3)
    assert a2[0] == 1 and a2[1] == Fraction(-1, 2)


def test_a_float_matches_exact():
    for j in (1, 2, 3, 5):
        exact = np.array([float(v) for v in refs.a_seq(j, 50)])
        np.testing.assert_allclose(basis.a_float(j, 50), exact, rtol=1e-13)


def test_a_float_endpoints_and_tail_sums_match_extended_precision():
    """The closures' endpoints a_N^(j) and their telescoped tails
    sum_(k>N) k^p a_k^(j) stay within 1e-13 of the 40-digit values at the
    horizons the paper route runs (worst seen 2.9e-14, at N = 10^5)."""
    for N in (64, 2048, 8192, 1 << 15, 100_000):
        with mp.workdps(40):
            a = {j: refs.a_value_mp(j, N) for j in range(1, 7)}
            T = {}  # the telescoping of basis.weighted_tail_sum, in 40 digits
            for j in range(2, 7):
                for p in range(min(2, j - 2) + 1):
                    T[p, j] = -mp.mpf(N + 1) ** p * a[j - 1] - sum(
                        math.comb(p, q) * T[q, j - 1] for q in range(p))
        for j in range(1, 7):
            got = float(basis.a_float(j, N)[N])
            assert got == pytest.approx(float(a[j]), rel=1e-13, abs=0), (j, N)
        for (p, j), want in T.items():
            got = basis.weighted_tail_sum(p, N, j)
            assert got == pytest.approx(float(want), rel=1e-13, abs=0), (p, j, N)


def test_weighted_tail_sum_against_brute_force():
    N, j, p = 64, 5, 1
    big = 400_000
    vals = basis.a_float(j, big)
    brute = float(np.sum(np.arange(N + 1, big + 1, dtype=float) ** p * vals[N + 1 :]))
    assert basis.weighted_tail_sum(p, N, j) == pytest.approx(brute, rel=1e-8)


def test_weighted_tail_needs_depth():
    with pytest.raises(ValueError):
        basis.weighted_tail_sum(2, 16, 3)  # needs j >= p + 2


def test_tail_sums_recover_a_known_tail():
    N = 512
    lo = 1 + (3 * N) // 4  # the last quartile, as psi_x fits it
    summand = basis.a_float(3, N)[1:]
    got, slope = basis.tail_sums(summand[lo - 1 :], lo, 2, (0,))
    want = float(refs.tail_sum(3, N + 1))
    assert got[0] == pytest.approx(want, rel=1e-6)
    assert 2.0 < slope < 3.0


def test_tail_sums_refuse_a_slow_tail():
    # n^(-1) decays slower than the n^(-1.2) the a^(2) fit needs
    window = 1.0 / np.arange(100, 200)
    with pytest.raises(basis.TailNotDecayed, match="decay exponent 1.000 < 1.2"):
        basis.tail_sums(window, 100, 2, (0,))


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
        approx = sum(g * basis.a_float(k, n - 1)[n - 1] for k, g in conv.items())
        assert approx == pytest.approx(target, rel=rel)


def test_conversion_table_is_the_fit_bit_for_bit():
    """Each table entry holds the floats of the 40-digit fit, whose residual
    decays at least like n^-(m+1/4), and is one shared read-only mapping."""
    for m in range(1, 5):
        for j in range(1, m + 1):
            conv = basis.power_to_shifted_basis(j, m, N_fit=1 << 12)
            assert basis.power_to_shifted_basis(j, m) is conv
            with pytest.raises(TypeError):
                conv[j] = 0.0
            # raises FitDiagnosticError below decay exponent m + 1/4
            coeffs, _ = refs.fitted_conversion(j, m, 1 << 12)
            got = {k: g.hex() for k, g in conv.items()}
            assert got == {k: g.hex() for k, g in coeffs.items()}, (j, m)


@pytest.mark.parametrize("j, m, N_fit", [(1, 5, 1 << 12), (0, 2, 1 << 12), (3, 2, 1 << 12),
                                         (2, 3, 1 << 13)])
def test_conversion_table_refuses_other_pairs(j, m, N_fit):
    with pytest.raises(ValueError, match="the table holds"):
        basis.power_to_shifted_basis(j, m, N_fit)


def test_a_float_is_shared_and_read_only():
    first = basis.a_float(3, 257)
    assert basis.a_float(3, 257) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 2.0


def _per_term(coefs, j0: int, ns) -> list:
    """0.0 + c_1 a_n^(j0) + c_2 a_n^(j0+1) + .. at each n, term by term in Python floats."""
    a = [basis.a_float(j, int(max(ns))) for j in range(j0, j0 + len(coefs))]
    out = []
    for n in ns:
        acc = 0.0
        for c, a_j in zip(coefs, a):
            acc = acc + float(c) * float(a_j[n])
        out.append(acc)
    return out


@pytest.mark.parametrize("terms", [1, 2, 3])
def test_expansion_is_the_per_term_sum_scalar_coefficients(terms):
    nu, N = (0.577350269189625765, -0.0748417015616181547, 0.00148495439606385227), 2048
    got = basis.expansion(nu[:terms], 1, np.arange(N + 1))
    assert got.shape == (N + 1,)
    assert got.tolist() == _per_term(nu[:terms], 1, range(N + 1))


@pytest.mark.parametrize("x_max", [0, 1, 7])
def test_expansion_is_the_per_term_sum_coefficient_array(x_max):
    ns = sorted(set(np.geomspace(32, 2048, 60).astype(int).tolist()))
    U = np.random.default_rng(x_max).normal(size=(2, x_max))
    got = basis.expansion(U, 2, ns)
    assert got.shape == (x_max, len(ns))
    for x in range(x_max):
        assert got[x].tolist() == _per_term(U[:, x], 2, ns)
