"""Edgeworth layer: Hermite/partition machinery, Q_nu, theta polynomials
against DP local probabilities, and the Delta_n coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_gausspoly_product_rule():
    """d/dx[p(x) phi(x)] = (p'(x) - x p(x)) phi(x), via finite differences."""
    p = edgeworth.Polynomial.from_coeffs((1.0, 2.0, -0.5))
    d = edgeworth.GaussPoly(p).deriv()
    h = 1e-6
    for x in np.linspace(-2, 2, 9):
        fd = (
            p(x + h) * math.exp(-((x + h) ** 2) / 2)
            - p(x - h) * math.exp(-((x - h) ** 2) / 2)
        ) / (2 * h)
        assert fd == pytest.approx(float(d.poly(x)) * math.exp(-x * x / 2), abs=1e-7)


def test_q1_at_zero_third_cumulant(skewed):
    """Q_1(0) = gamma_3 / (6 sigma^3 sqrt(2 pi))."""
    cums = [float(c) for c in skewed.cumulants(3)]
    sigma = math.sqrt(cums[1])
    want = cums[2] / (6 * sigma**3 * math.sqrt(2 * math.pi))
    got = edgeworth.edgeworth_Q(1, skewed, sigma).at_zero()
    assert float(got) == pytest.approx(want, rel=1e-12)


def test_s_nu_zero_bernoulli_values():
    # S_1(0) = 1/2 is a separate convention constant; S_2k(0) from Bernoulli
    assert float(edgeworth.S1_AT_ZERO) == pytest.approx(0.5)
    assert edgeworth.s_nu_zero(2) == pytest.approx(1.0 / 12.0)
    assert edgeworth.s_nu_zero(3) == pytest.approx(0.0)
    assert edgeworth.s_nu_zero(4) == pytest.approx(1.0 / 720.0)


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
    # symmetric walk: theta_1 = -2 sqrt(pi) A with A = P(S_n = 0)-type mass
    ana = edgeworth.delta_coeffs(lazy)
    assert ana.theta1 == pytest.approx(1.0, rel=1e-12)


def test_theta_polys_reuse_conversions_across_laws(lazy, skewed, monkeypatch):
    """The a-basis conversions do not depend on the law: a second law runs
    no fit and gets the same polynomials as from a cold cache."""
    fits = []
    fit = basis._fit_on_basis

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(basis, "_fit_on_basis", counting_fit)
    basis.power_to_shifted_basis.cache_clear()
    edgeworth.theta_polys(lazy, r=4)
    assert fits
    fits.clear()
    warm = edgeworth.theta_polys(skewed, r=4)
    assert fits == []
    basis.power_to_shifted_basis.cache_clear()
    assert edgeworth.theta_polys(skewed, r=4) == warm
