"""tau_0 pipeline: psi scalars, mu algebra (recurrence vs closed form vs
half-power ring), and the nu ladder against the DP tail."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctuator import basis, oracle, tau0

N = 1 << 12


@pytest.fixture(scope="module")
def lazy_coeffs(lazy):
    return tau0.tau0_coeffs(lazy, N=N)


@pytest.fixture(scope="module")
def skewed_coeffs(skewed):
    return tau0.tau0_coeffs(skewed, N=N)


def test_lazy_nu1_exact_half(lazy_coeffs):
    # lazy L: P(tau_0 > n) = a_n^(1) / 2 exactly, so nu_1 = 1/2 and the
    # higher coefficients vanish
    nu = lazy_coeffs.nu
    assert nu[0] == pytest.approx(0.5, abs=1e-12)
    assert abs(nu[1]) < 1e-9
    assert abs(nu[2]) < 1e-6


def test_psi_scalars_decay_diagnostic(skewed_coeffs):
    assert skewed_coeffs.psi.tail_decay_exponent > 3.2


@settings(deadline=None, max_examples=40)
@given(
    st.floats(-0.8, 0.8),
    st.floats(-0.8, 0.8),
    st.floats(-0.8, 0.8),
    st.floats(-0.8, 0.8),
)
def test_mu_recurrence_matches_closed_form(t1, p1, t2, p2):
    psi = tau0.PsiScalars(
        psi0=0.0, psi1=p1, psi2=p2, theta1=t1, theta2=t2,
        tail_decay_exponent=float("inf"),
    )
    mu = tau0.mu_coeffs(psi)
    closed = tau0.mu_closed_form(*tau0.reparametrized_scalars(psi))
    np.testing.assert_allclose(mu, closed, rtol=1e-12, atol=1e-12)


def test_mu_display_example():
    # theta_1 = 1, all other reparametrized scalars zero -> mu = (1,1,1,1,1)
    assert tau0.mu_closed_form(1.0, 0.0, 0.0, 0.0) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_halfpow_route_agrees(skewed_coeffs):
    cross = tau0.tau0_coeffs_halfpow(skewed_coeffs.psi)
    np.testing.assert_allclose(cross, skewed_coeffs.nu, rtol=1e-9)


def test_decay_ladder_skewed(skewed, skewed_coeffs):
    truth = oracle.tau_tail(skewed, 0, N, mode="float")
    ns = np.arange(N // 8, N + 1)
    slopes = []
    for terms in (1, 2, 3):
        approx = tau0.evaluate_tau0(skewed_coeffs, N, terms)
        err = np.abs(truth[ns] - approx[ns])
        slopes.append(-np.polyfit(np.log(ns), np.log(err), 1)[0])
    assert slopes[0] > 1.4 and slopes[1] > 2.4 and slopes[2] > 3.2
    assert slopes[0] < slopes[1] < slopes[2]


def test_psi_scalars_flags_slow_tails(skewed):
    # feeding wrong thetas leaves an n^(-3/2) remainder: must be rejected
    with pytest.raises(oracle.TailNotDecayed):
        tau0.psi_scalars(oracle.delta_table(skewed, N)[0], thetas=(0.0, 0.0))


def test_evaluate_tau0_term_bounds(lazy_coeffs):
    with pytest.raises(ValueError):
        tau0.evaluate_tau0(lazy_coeffs, 64, terms=4)
