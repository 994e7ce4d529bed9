"""tau_0 pipeline: psi scalars, mu algebra (recurrence vs closed form), and
the nu ladder against the DP tail and the Wiener-Hopf closed form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctuator import basis, edgeworth, oracle, polyharmonic, tau0, walk
from test_conditioned import DOUBLE, _mean_zero_laws

import oracle_references as refs

N = 1 << 12


@pytest.fixture(scope="module")
def lazy_coeffs(lazy):
    return refs.tau0_coeffs_at(lazy, N)


@pytest.fixture(scope="module")
def skewed_coeffs(skewed):
    return refs.tau0_coeffs_at(skewed, N)


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
    closed = refs.mu_closed_form(*refs.reparametrized_scalars(psi))
    np.testing.assert_allclose(mu, closed, rtol=1e-12, atol=1e-12)


def test_mu_display_example():
    # theta_1 = 1, all other reparametrized scalars zero -> mu = (1,1,1,1,1)
    assert refs.mu_closed_form(1.0, 0.0, 0.0, 0.0) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_nu_matches_the_wiener_hopf_closed_form(skewed, skewed_coeffs):
    # the paper route's nu_1, nu_2 against the exact values; its nu_3 carries
    # the horizon's truncation, which expand tau0 reports as its error
    exact = polyharmonic.v_wiener_hopf(skewed, 0, 2)[:, 0]
    np.testing.assert_allclose(skewed_coeffs.nu[:2], exact, rtol=1e-9)


def test_decay_ladder_skewed(skewed, skewed_coeffs):
    truth = oracle.tau_tail(skewed, 0, N, mode="float")
    ns = np.arange(N // 8, N + 1)
    slopes = []
    for terms in (1, 2, 3):
        approx = basis.expansion(skewed_coeffs.nu[:terms], 1, np.arange(N + 1))
        err = np.abs(truth[ns] - approx[ns])
        slopes.append(-np.polyfit(np.log(ns), np.log(err), 1)[0])
    assert slopes[0] > 1.4 and slopes[1] > 2.4 and slopes[2] > 3.2
    assert slopes[0] < slopes[1] < slopes[2]


def test_psi_scalars_flags_slow_tails(skewed):
    # feeding wrong thetas leaves an n^(-3/2) remainder: must be rejected
    deltas = oracle.delta_table(skewed, N)[0]
    with pytest.raises(basis.TailNotDecayed):
        tau0.psi_scalars(deltas, thetas=(0.0, 0.0))
    with pytest.raises(basis.TailNotDecayed):
        refs.psi_scalars(deltas, thetas=(0.0, 0.0))


def _check_psi_scalars_first_form(law, n: int) -> None:
    """psi_scalars through basis.tail_sums equals its inline first form, or
    both refuse the remainder."""
    deltas, thetas = oracle.delta_table(law, n)[0], edgeworth.delta_coeffs(law)
    try:
        want = refs.psi_scalars(deltas, thetas)
    except basis.TailNotDecayed as exc:
        with pytest.raises(basis.TailNotDecayed, match=str(exc)):
            tau0.psi_scalars(deltas, thetas)
        return
    assert tau0.psi_scalars(deltas, thetas) == want


@pytest.mark.parametrize("law", [walk.lazy_walk(), walk.skewed_walk(), DOUBLE],
                         ids=["lazy", "skewed", "double"])
@pytest.mark.parametrize("n", [64, 2048, 8192])
def test_psi_scalars_match_the_first_form(law, n):
    _check_psi_scalars_first_form(law, n)


@settings(max_examples=20, deadline=None)
@given(law=_mean_zero_laws(), n=st.sampled_from([256, 2048]))
def test_psi_scalars_match_the_first_form_random_laws(law, n):
    _check_psi_scalars_first_form(law, n)
