"""Acceptance suite: exact-identity checks plus property-based decay-rate
reproduction at desk scale.

Criterion map (one test per numbered criterion):
  1  exact identities in rational mode (difference law, Spitzer, left-
     continuous identity, duality factorization)
  2  tau_0 decay ladder on the lazy walk (with termination floor: the lazy
     expansion is exact after one term, so higher-term errors sit at float
     noise and the fitted exponent is reported as +inf); the skewed walk
     supplements with a non-degenerate ladder
  3  nu_1 Tauberian constant against the DP tail at n = 4096
  4  MC with uniform[-1, 1] increments against the exact symmetric-
     continuous law P(tau_0 > n) = a_n^(1)
  5  conditioned-walk one-term ladder error exponent
  6  paper-route nu_1, nu_2 (built on the analytic theta_1, theta_2)
     against the Wiener-Hopf closed form
  7  polyharmonicity of V_1 and the (P - I)V_2 = V_1 identity (lazy)
  8  left-continuous closed form vs duality assembly vs DP ratio (skewed)
  9  polynomial tail structure of V_1, V_2 plus synthetic recovery
"""

import numpy as np
import pytest

from fluctuator import (
    basis,
    conditioned,
    oracle,
    polyharmonic as ph,
    tau0,
)

N_BIG = 1 << 13  # 8192


# ---------------------------------------------------------------------------
# shared heavy artifacts


@pytest.fixture(scope="module")
def lazy_tail(lazy):
    return oracle.tau_tail(lazy, 0, N_BIG, mode="float")


@pytest.fixture(scope="module")
def lazy_coeffs(lazy):
    return tau0.tau0_coeffs(lazy, N=N_BIG)


@pytest.fixture(scope="module")
def skewed_coeffs(skewed):
    return tau0.tau0_coeffs(skewed, N=N_BIG)


@pytest.fixture(scope="module")
def lad_lazy(lazy):
    # window [1, 30] for defects needs operator headroom above x = 30
    return ph.v_ladder(lazy, x_max=34, J=2, N=N_BIG)


@pytest.fixture(scope="module")
def lad_skewed(skewed):
    return ph.v_ladder(skewed, x_max=44, J=2, N=N_BIG)


# ---------------------------------------------------------------------------
# 1. exact identities (rational mode)


def test_criterion_1a_difference_law():
    for j in range(1, 7):
        a_j = basis.a_seq(j, 200)
        a_j1 = basis.a_seq(j + 1, 200)
        for n in range(1, 201):
            assert a_j[n] - a_j[n - 1] == a_j1[n]


def test_criterion_1b_spitzer(lazy, skewed):
    for law in (lazy, skewed):
        assert oracle.spitzer_check(law, 100) == 0
        assert oracle.identity_suite(law, 100).spitzer_float <= 1e-12


def test_criterion_1c_leftcont(skewed):
    # walk W is left-continuous (down-jumps of size 1)
    assert oracle.leftcont_check(skewed, 10, 100) == 0


def test_criterion_1d_duality(lazy, skewed):
    for law in (lazy, skewed):
        for x in range(1, 6):
            assert oracle.duality_check(law, x, 100) == 0


# ---------------------------------------------------------------------------
# 2. tau_0 decay ladder


def _ladder_exponent(truth, approx, lo=512, hi=N_BIG):
    """Fitted log-log error exponent over n in [lo, hi]; +inf when the error
    sits at the float-noise floor (relative error below 1e-9), which happens
    when the expansion terminates."""
    ns = np.arange(lo, hi + 1)
    err = np.abs(truth[ns] - approx[ns])
    if (err / truth[ns]).max() <= 1e-9:
        return float("inf")
    keep = err > 0
    return float(-np.polyfit(np.log(ns[keep]), np.log(err[keep]), 1)[0])


def test_criterion_2_decay_ladder_lazy(lazy, lazy_tail, lazy_coeffs):
    want = (1.25, 2.25, 2.7)
    for terms, floor in zip((1, 2, 3), want):
        approx = tau0.evaluate_tau0(lazy_coeffs, N_BIG, terms)
        assert _ladder_exponent(lazy_tail, approx) >= floor


def test_criterion_2_decay_ladder_nondegenerate(skewed, skewed_coeffs):
    # supplement: walk W's 1- and 2-term errors show the actual 3/2 and 5/2
    # slopes; the 3-term error reaches float noise inside the window
    truth = oracle.tau_tail(skewed, 0, N_BIG, mode="float")
    slopes = [
        _ladder_exponent(truth, tau0.evaluate_tau0(skewed_coeffs, N_BIG, t))
        for t in (1, 2, 3)
    ]
    assert slopes[0] >= 1.25 and slopes[1] >= 2.25 and slopes[2] >= 2.7
    assert np.isfinite(slopes[0]) and np.isfinite(slopes[1])
    assert 1.4 < slopes[0] < 1.7 and 2.4 < slopes[1] < 2.7


# ---------------------------------------------------------------------------
# 3. nu_1 Tauberian constant


def test_criterion_3_tauberian(lazy, skewed, lazy_tail, lazy_coeffs, skewed_coeffs):
    n = 4096
    a1 = basis.a_float(1, n)[n]
    assert lazy_tail[n] / a1 == pytest.approx(lazy_coeffs.nu[0], rel=5e-3)
    truth_w = oracle.tau_tail(skewed, 0, n, mode="float")
    assert truth_w[n] / a1 == pytest.approx(skewed_coeffs.nu[0], rel=5e-3)


# ---------------------------------------------------------------------------
# 4. symmetric-continuous exact law by MC


def test_criterion_4_mc_uniform():
    def sampler(rng, size):
        return rng.uniform(-1.0, 1.0, size)

    for n in (10, 100):
        est = oracle.mc_tau_tail(sampler, 0.0, n, paths=1_000_000, seed=20_260_827)
        truth = basis.a_value(1, n)
        assert est.covers(truth, widths=3.0), (
            f"n={n}: estimate {est.estimate} +- {est.half_width} vs {truth}"
        )


# ---------------------------------------------------------------------------
# 5. conditioned-walk ladder


def test_criterion_5_conditioned_ladder(skewed):
    table = oracle.conditioned_table(skewed, N_BIG, 5, strict=False)
    U = ph.u_wiener_hopf(skewed, 5, 1)
    n_grid = np.unique(np.geomspace(512, N_BIG, 48).astype(int))
    for x in (1, 2, 5):
        res = conditioned.u_expansion_eval(table, U, x, n_grid, J=1)
        assert res["decay_exponent"] >= 2.2, f"x={x}: {res['decay_exponent']}"


# ---------------------------------------------------------------------------
# 6. Edgeworth terms against the closed form


def test_criterion_6_theta_modes(lazy, skewed, lazy_coeffs, skewed_coeffs):
    # theta_1 off by 1e-6 or theta_2 off by 1e-3 leaves a remainder the psi
    # closure refuses; theta_2 off by 1e-6 moves skewed nu_2 by 2.7e-9
    for law, co in ((lazy, lazy_coeffs), (skewed, skewed_coeffs)):
        exact = ph.v_wiener_hopf(law, 0, 2).nu
        assert co.nu[0] == pytest.approx(exact[0], rel=0, abs=1e-12)
        assert co.nu[1] == pytest.approx(exact[1], rel=1e-9, abs=1e-10)


# ---------------------------------------------------------------------------
# 7. polyharmonicity (lazy L)


def test_criterion_7_polyharmonic(lazy, lad_lazy):
    window = (1, 30)
    assert ph.polyharm_defect(lazy, lad_lazy[1], window) <= 1e-6
    step_v2 = ph.killed_step(lazy, lad_lazy[2])
    resid = ph.v2_identity_residual(step_v2, lad_lazy[1], window)
    assert resid <= 1e-2
    d2 = ph.polyharm_defect(lazy, step_v2, window)
    scale = float(np.abs(lad_lazy[2][window[0] : window[1] + 1]).max())
    assert d2 / scale <= 1e-2


# ---------------------------------------------------------------------------
# 8. closed form vs duality assembly (walk W)


def test_criterion_8_leftcont_vs_ladder(skewed, lad_skewed):
    lc = ph.v_leftcont(skewed, 10, 1)
    for x in range(1, 11):
        assert lc[1][x] == pytest.approx(lad_skewed[1][x], rel=1e-2)
    n = 4096
    a1 = basis.a_float(1, n)[n]
    for x in (1, 5, 10):
        ratio = oracle.tau_tail(skewed, x, n, mode="float")[n] / a1
        assert lad_skewed[1][x] == pytest.approx(ratio, rel=1e-2)
        assert lc[1][x] == pytest.approx(ratio, rel=1e-2)


# ---------------------------------------------------------------------------
# 9. polynomial tail structure


def test_criterion_9_polynomial_tails(lad_skewed):
    xs = np.arange(1, 41)
    for j, degree in ((1, 1), (2, 3)):
        fit = ph.poly_tail_fit(xs, lad_skewed[j][1:41], degree)
        assert fit.passed, f"V_{j} residuals exceed 1e-3 of scale"


def test_criterion_9_synthetic_recovery():
    xs = np.arange(1, 41, dtype=float)
    coeffs = np.array([0.25, -1.5, 2.0])
    values = coeffs[0] + coeffs[1] * xs + coeffs[2] * xs**2 + np.exp(-xs)
    fit = ph.poly_tail_fit(xs, values, degree=2)
    assert fit.passed
    np.testing.assert_allclose(fit.coefficients, coeffs, rtol=1e-6, atol=1e-6)
