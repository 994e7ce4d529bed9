"""Asymptotic expansion of P(tau_0 > n) on the a-basis.

Pipeline: exact DP values of Delta_n = 1/2 - P(S_n <= 0) feed the scalars
psi_0, psi_1, psi_2 (regular part of the Spitzer exponent at s = 1); the
half-power part carries theta_1, theta_2 from the Edgeworth module.
Exponentiating the local expansion of the exponent and dividing by
sqrt(1-s) yields

    P(tau_0 > n) ~ nu_1 a_n^(1) + nu_2 a_n^(2) + nu_3 a_n^(3),

with nu_l = exp(psi_0) mu_(2l-2) and mu_k the (1-s)^(k/2) Taylor
coefficients of the exponentiated singular part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis, edgeworth, halfpow, oracle
from .oracle import TailNotDecayed
from .walk import LatticeLaw

__all__ = [
    "PsiScalars",
    "Tau0Coefficients",
    "psi_scalars",
    "mu_coeffs",
    "mu_closed_form",
    "reparametrized_scalars",
    "tau0_coeffs",
    "evaluate_tau0",
    "tau0_coeffs_halfpow",
]


@dataclass(frozen=True)
class PsiScalars:
    psi0: float
    psi1: float
    psi2: float
    theta1: float
    theta2: float  # unshifted-basis convention: Delta_n/n ~ t1 a_n^(2) + t2 a_n^(3)
    tail_decay_exponent: float


@dataclass(frozen=True)
class Tau0Coefficients:
    nu: tuple[float, float, float]
    mu: tuple[float, float, float, float, float]
    psi: PsiScalars


def psi_scalars(deltas: np.ndarray, thetas: tuple[float, float]) -> PsiScalars:
    """Regular-part scalars of the Spitzer exponent Q(s) = sum Delta_n s^n / n.

    Near s = 1,
        Q(s) = psi0 + t1 (1-s)^(1/2) + psi1 (1-s) + t2 (1-s)^(3/2) + psi2 (1-s)^2 + ...
    with t1, t2 the (unshifted) correction coefficients of Delta_n / n.  The
    psi's are weighted sums of the remainder r_n = Delta_n/n - t1 a_n^(2)
    - t2 a_n^(3):
        psi0 = sum r_n - t1 - t2,  psi1 = -sum n r_n,  psi2 = sum C(n,2) r_n,
    closed beyond the horizon by fitting r_n on {a^(4), a^(5), a^(6)} and
    summing the fitted tails exactly.

    `deltas[n]` for n = 0..N come from oracle.delta_table; `thetas` are the
    shifted-basis (theta1, theta2) of edgeworth.delta_coeffs.  Raises
    TailNotDecayed when the remainder decays slower than n^(-3.2).
    """
    deltas = np.asarray(deltas, dtype=float)
    N = deltas.size - 1
    t1, t2_shift = thetas
    t2 = t2_shift - t1  # shifted -> unshifted basis

    n = np.arange(1, N + 1, dtype=float)
    r = deltas[1:] / n - t1 * basis.a_float(2, N)[1:] - t2 * basis.a_float(3, N)[1:]

    # decay diagnostic and tail fit on the last quartile
    lo = 1 + (3 * (N - 1)) // 4
    ns = np.arange(lo, N + 1, dtype=float)
    window = r[lo - 1 :]
    nz = np.abs(window) > 0
    if nz.sum() < 8:
        slope = float("inf")
        tails = {0: 0.0, 1: 0.0, 2: 0.0}
    else:
        slope = float(-np.polyfit(np.log(ns[nz]), np.log(np.abs(window[nz])), 1)[0])
        if slope < 3.2:
            raise TailNotDecayed(f"remainder decay exponent {slope:.3f} < 3.2")
        js = (4, 5, 6)
        cols = np.stack([basis.a_float(j, N)[lo:] for j in js], axis=1)
        coef, *_ = np.linalg.lstsq(cols, window, rcond=None)
        tails = {
            p: float(sum(c * basis.weighted_tail_sum(p, N, j) for c, j in zip(coef, js)))
            for p in (0, 1, 2)
        }

    psi0 = float(r.sum()) + tails[0] - t1 - t2
    psi1 = -(float((n * r).sum()) + tails[1])
    psi2 = float((n * (n - 1) / 2 * r).sum()) + (tails[2] - tails[1]) / 2
    return PsiScalars(
        psi0=psi0, psi1=psi1, psi2=psi2, theta1=t1, theta2=t2,
        tail_decay_exponent=slope,
    )


def mu_coeffs(psi: PsiScalars) -> tuple[float, float, float, float, float]:
    """mu_0..mu_4: Taylor coefficients in u = (1-s)^(1/2) of
    exp(t1 u + psi1 u^2 + t2 u^3 + psi2 u^4)."""
    g = [0.0, psi.theta1, psi.psi1, psi.theta2, psi.psi2]
    mu = [1.0, 0.0, 0.0, 0.0, 0.0]
    # exp via e' = g' e, i.e. k mu_k = sum_j j g_j mu_(k-j)
    for k in range(1, 5):
        mu[k] = sum(j * g[j] * mu[k - j] for j in range(1, k + 1)) / k
    return tuple(mu)


def reparametrized_scalars(psi: PsiScalars) -> tuple[float, float, float, float]:
    """(theta1, psi1', theta2', psi2') with the log(1 - theta1 u) part of the
    exponent absorbed:

        psi1' = psi1 - theta1^2/2,  theta2' = theta2 - theta1^3/3,
        psi2' = psi2 - theta1^4/4.

    In these variables the mu_k take the short closed forms of
    mu_closed_form; mu_coeffs on the raw scalars gives identical values.
    """
    t1 = psi.theta1
    return (
        t1,
        psi.psi1 - t1 ** 2 / 2,
        psi.theta2 - t1 ** 3 / 3,
        psi.psi2 - t1 ** 4 / 4,
    )


def mu_closed_form(
    theta1: float, psi1: float, theta2: float, psi2: float
) -> tuple[float, float, float, float, float]:
    """mu_0..mu_4 as explicit polynomials in the reparametrized scalars:

        mu_0 = 1,                   mu_1 = theta1,
        mu_2 = psi1 + theta1^2,     mu_3 = theta2 + psi1 theta1 + theta1^3,
        mu_4 = psi2 + psi1^2/2 + psi1 theta1^2 + theta2 theta1 + theta1^4.
    """
    return (
        1.0,
        theta1,
        psi1 + theta1 ** 2,
        theta2 + psi1 * theta1 + theta1 ** 3,
        psi2 + psi1 ** 2 / 2 + psi1 * theta1 ** 2 + theta2 * theta1 + theta1 ** 4,
    )


def tau0_coeffs(
    law: LatticeLaw,
    N: int,
    deltas: np.ndarray | None = None,
) -> Tau0Coefficients:
    """nu_1..nu_3 for P(tau_0 > n) ~ sum nu_l a_n^(l).

    theta_1, theta_2 come from the Edgeworth polynomials at zero (analytic
    mode of edgeworth.delta_coeffs).  `deltas` (deltas[n] for n = 0..N, from
    oracle.delta_table) saves the free sweep when the caller has already
    run it.
    """
    law.require_expansion_ready()
    cdf = edgeworth.delta_coeffs(law, mode="analytic")
    if deltas is None:
        deltas, _ = oracle.delta_table(law, N)
    psi = psi_scalars(deltas, (cdf.theta1, cdf.theta2))
    mu = mu_coeffs(psi)
    e0 = math.exp(psi.psi0)
    return Tau0Coefficients(nu=(e0, e0 * mu[2], e0 * mu[4]), mu=mu, psi=psi)


def tau0_coeffs_halfpow(psi: PsiScalars) -> tuple[float, float, float]:
    """Cross-check route: exponentiate the singular part as a HalfPowSeries
    (length 2^10), divide by sqrt(1-s), and read nu_l off half-index 2l - 3."""
    Q = halfpow.from_poly(
        {0: psi.psi0, 1: psi.theta1, 2: psi.psi1, 3: psi.theta2, 4: psi.psi2}, 1 << 10
    )
    T = halfpow.div_sqrt(halfpow.exp_poly(Q, order=4))
    return tuple(T.poly_part.get(2 * ell - 3, 0.0) for ell in (1, 2, 3))


def evaluate_tau0(coeffs: Tau0Coefficients, N: int, terms: int) -> np.ndarray:
    """Approximation of P(tau_0 > n), n = 0..N, using 1..3 terms."""
    if not 1 <= terms <= 3:
        raise ValueError("terms must be 1, 2, or 3")
    out = np.zeros(N + 1)
    for ell in range(1, terms + 1):
        out += coeffs.nu[ell - 1] * basis.a_float(ell, N)
    return out
