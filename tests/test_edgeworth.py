"""Edgeworth layer: Hermite/partition machinery, theta polynomials against
DP local probabilities and against a 40-digit partition-sum reference, and
the closed-form Delta_n coefficients against an exact-rational partition-sum
reference."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from test_conditioned import DOUBLE, _mean_zero_laws

from fluctuator import basis, edgeworth, oracle


@given(st.integers(0, 10))
def test_hermite_parity_and_degree(m):
    H = edgeworth.hermite(m)
    coeffs = H.coefficients
    assert len(coeffs) == m + 1
    # probabilists' Hermite: parity alternates, leading coefficient 1
    assert coeffs[-1] == 1
    for k, c in enumerate(coeffs):
        if (m - k) % 2:
            assert c == 0


def test_hermite_recurrence_samples():
    # He_3 = x^3 - 3x, He_4 = x^4 - 6x^2 + 3
    assert edgeworth.hermite(3).coefficients == (0, -3, 0, 1)
    assert edgeworth.hermite(4).coefficients == (3, 0, -6, 0, 1)


@given(st.integers(1, 7))
def test_partition_tuples_weighting(nu):
    """Partitions of nu into parts counted with multiplicity k_m of part m."""
    tuples = edgeworth.partition_tuples(nu)
    for ks in tuples:
        assert sum((m + 1) * k for m, k in enumerate(ks, start=0)) == nu or sum(
            m * k for m, k in enumerate(ks, start=1)
        ) == nu
    # partition counts p(nu) for nu = 1..7: 1,2,3,5,7,11,15
    assert len(tuples) == [1, 2, 3, 5, 7, 11, 15][nu - 1]


def test_theta_polys_expand_local_probabilities(skewed):
    """p_n(x) - sum_j theta_j(x) a_(n-1)^(j+1) sits at the truncation floor
    of the 4-term ladder (well below the smallest kept term)."""
    N = 4096
    thetas = edgeworth.theta_polys(skewed, r=4)
    _, traces = oracle.delta_table(skewed, N, xs=(0, 1, 3))
    for x in (0, 1, 3):
        resid = traces[x].copy()
        for j, th in enumerate(thetas[:4]):
            resid -= float(th(x)) * np.concatenate(
                [[0.0], basis.a_float(j + 1, N - 1)]
            )
        err = np.abs(resid[N // 2 :])
        assert err.max() < 1e-9


def test_theta0_normalization(lazy):
    sigma = math.sqrt(float(lazy.variance))
    thetas = edgeworth.theta_polys(lazy, r=2)
    assert float(thetas[0](0)) == pytest.approx(
        1.0 / (sigma * math.sqrt(2)), rel=1e-5
    )


def test_delta_coeffs_lazy_symmetry(lazy):
    # symmetric walk: R_A = S_1 = 1/2, R_B = -S_1 kappa_4 / (8 v^2) = 1/16
    # with v = 1/2, kappa_4 = -1/4; both thetas come out correctly rounded
    assert edgeworth.delta_coeffs(lazy) == (1.0, 4 / 3)


# S_r(0) of the periodic Bernoulli factors: S_0 = 1, the S_1 jump
# convention, B_2 / 2!, and 0 at odd r >= 3
_S_AT_ZERO = (Fraction(1), edgeworth.S1_AT_ZERO, Fraction(1, 12), Fraction(0))


def _lattice_cdf_at_zero(law, k: int) -> Fraction:
    """sqrt(2 pi v) times the n^(-k/2) coefficient (k odd) of P(S_n <= 0) - 1/2,
    from Esseen's expansion as a partition sum over every term
    S_r(0) D^r Q_nu(0) / sigma^r with nu + r = k: Q_0 = Phi, D^r Phi(0) =
    (-1)^(r-1) He_(r-1)(0) phi(0), and D^r Q_nu(0) = -(-1)^r phi(0) sum over
    partitions of nu of He_(nu+2s-1+r)(0) prod (kappa_(m+2) / ((m+2)!
    sigma^(m+2)))^(k_m) / k_m!.  Each term is rational times sigma^-(k+2s-1)."""
    kappas = law.cumulants(k + 2)
    v = kappas[1]
    acc = _S_AT_ZERO[k] * (-1) ** (k - 1) * edgeworth.hermite(k - 1)(0) / v ** ((k - 1) // 2)
    for nu in range(1, k + 1):
        r = k - nu
        for ks in edgeworth.partition_tuples(nu):
            s = sum(ks)
            w = Fraction(1)
            for m, km in enumerate(ks, start=1):
                w *= (kappas[m + 1] / math.factorial(m + 2)) ** km / math.factorial(km)
            he = edgeworth.hermite(nu + 2 * s - 1 + r)(0)
            acc -= _S_AT_ZERO[r] * (-1) ** r * he * w / v ** ((k - 1) // 2 + s)
    return acc


def _assert_correctly_rounded(theta: float, r: Fraction, v: Fraction) -> None:
    """theta is r sqrt(2 / v) to within half an ulp."""
    assert theta * r >= 0
    t = Fraction(abs(theta))
    lo, hi = (Fraction(math.nextafter(abs(theta), to)) for to in (0, math.inf))
    assert ((lo + t) / 2) ** 2 <= 2 * r * r / v <= ((t + hi) / 2) ** 2


def _check_closed_form(law) -> None:
    v = law.variance
    r_a = _lattice_cdf_at_zero(law, 1)
    r_b = -_lattice_cdf_at_zero(law, 3)
    theta1, theta2 = edgeworth.delta_coeffs(law)
    _assert_correctly_rounded(theta1, r_a, v)
    _assert_correctly_rounded(theta2, 5 * r_a / 4 + 2 * r_b / 3, v)


def test_delta_coeffs_closed_form_hand_picked(lazy, skewed):
    for law in (lazy, skewed):
        _check_closed_form(law)


@settings(max_examples=40, deadline=None)
@given(law=_mean_zero_laws())
def test_delta_coeffs_closed_form_random_laws(law):
    _check_closed_form(law)


def test_pi_literal_has_only_correct_digits():
    with mp.workdps(120):
        assert edgeworth._PI_E100 == int(mp.floor(mp.pi * 10**100))
    assert len(str(edgeworth._PI_E100)) == 101


def _theta_polys_reference(law, r: int) -> list:
    """theta_0..theta_J with every term of the n^-(j+1/2) ladder summed in
    40-digit mpmath, sigma and sqrt(2 pi) included: the partition weights
    prod (kappa_(m+2) / ((m+2)! sigma^(m+2)))^k_m / k_m! times phi(t)
    He_(nu+2s)(t) n^(-nu/2) / (sigma sqrt(n)), t = x / (sigma sqrt(n)),
    collected by powers of x and n and converted to the shifted a-basis."""
    J = r // 2
    kappas = law.cumulants(2 * J + 2)
    with mp.workdps(40):
        sig = mp.mpf(law.variance.numerator) / law.variance.denominator
        sigma = mp.sqrt(sig)
        pref = 1 / (sigma * mp.sqrt(2 * mp.pi))
        # f[j][p] = coefficient of x^p in the n^-(j+1/2) ladder term
        f = [[mp.mpf(0)] * (2 * j + 1) for j in range(J + 1)]

        def add_gauss_term(nu, herm, weight):
            for m, hm in enumerate(herm.coefficients):
                if hm == 0:
                    continue
                for k in range(J + 1):
                    twoj = 2 * k + m + nu
                    if twoj % 2 or twoj // 2 > J:
                        continue
                    j = twoj // 2
                    d_k = mp.mpf(-1) ** k / (math.factorial(k) * (2 * sig) ** k)
                    f[j][2 * j - nu] += weight * pref * d_k * mp.mpf(hm) / sigma**m

        add_gauss_term(0, edgeworth.hermite(0), mp.mpf(1))
        for nu in range(1, 2 * J + 1):
            for ks in edgeworth.partition_tuples(nu):
                w = mp.mpf(1)
                for m, km in enumerate(ks, start=1):
                    if km == 0:
                        continue
                    kappa = kappas[m + 1]
                    w *= (mp.mpf(kappa.numerator) / kappa.denominator
                          / (math.factorial(m + 2) * sigma ** (m + 2))) ** km
                    w /= math.factorial(km)
                if w:
                    add_gauss_term(nu, edgeworth.hermite(nu + 2 * sum(ks)), w)

        thetas = [[mp.mpf(0)] * (2 * j + 1) for j in range(J + 1)]
        for i in range(J + 1):
            conv = basis.power_to_shifted_basis(i + 1, J + 1)
            for k, gamma in conv.items():
                for p, c in enumerate(f[i]):
                    thetas[k - 1][p] += mp.mpf(gamma) * c
    return [edgeworth.Polynomial.from_coeffs([float(c) for c in row]) for row in thetas]


def _check_theta_polys(law) -> None:
    for r in (2, 4, 6):
        assert edgeworth.theta_polys(law, r) == _theta_polys_reference(law, r), (law, r)


def test_theta_polys_match_the_reference_hand_picked(lazy, skewed):
    """The exact term table gives the 40-digit sums' floats, float for float."""
    for law in (lazy, skewed, DOUBLE):
        _check_theta_polys(law)


@settings(max_examples=40, deadline=None)
@given(law=_mean_zero_laws())
def test_theta_polys_match_the_reference_random_laws(law):
    _check_theta_polys(law)
