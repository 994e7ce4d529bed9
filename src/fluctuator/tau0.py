"""Asymptotic expansion of P(tau_0 > n) on the a-basis.

Pipeline: DP values of Delta_n = 1/2 - P(S_n <= 0), from a free sweep the
caller runs (`oracle.delta_table`), feed the scalars psi_0, psi_1, psi_2
(regular part of the Spitzer exponent at s = 1); the half-power part
carries theta_1, theta_2 from the Edgeworth module.
Exponentiating the local expansion of the exponent and dividing by
sqrt(1-s) yields

    P(tau_0 > n) ~ nu_1 a_n^(1) + nu_2 a_n^(2) + nu_3 a_n^(3),

with nu_l = exp(psi_0) mu_(2l-2) and mu_k the (1-s)^(k/2) Taylor
coefficients of the exponentiated singular part, computed by the
exponential's recurrence (`mu_coeffs`).  Their closed forms in the
reparametrized scalars, which the tests check the recurrence against, are
test references (tests/oracle_references.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis, edgeworth
from .walk import LatticeLaw

__all__ = [
    "PsiScalars",
    "Tau0Coefficients",
    "psi_scalars",
    "mu_coeffs",
    "tau0_coeffs",
    "evaluate_tau0",
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
    each closed beyond the horizon by `basis.tail_sums` on the last quartile
    of r_n (the fit on {a^(4), a^(5), a^(6)}).

    `deltas[n]` for n = 0..N come from oracle.delta_table; `thetas` are the
    shifted-basis (theta1, theta2) of edgeworth.delta_coeffs.  Raises
    basis.TailNotDecayed when the remainder decays slower than n^(-3.2).
    """
    deltas = np.asarray(deltas, dtype=float)
    N = deltas.size - 1
    t1, t2_shift = thetas
    t2 = t2_shift - t1  # shifted -> unshifted basis

    n = np.arange(1, N + 1, dtype=float)
    r = deltas[1:] / n - t1 * basis.a_float(2, N)[1:] - t2 * basis.a_float(3, N)[1:]

    # tail closure on the last quartile
    lo = 1 + (3 * (N - 1)) // 4
    tails, slope = basis.tail_sums(r[lo - 1 :], lo, 4, (0, 1, 2))

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


def tau0_coeffs(law: LatticeLaw, deltas: np.ndarray) -> Tau0Coefficients:
    """nu_1..nu_3 for P(tau_0 > n) ~ sum nu_l a_n^(l), from deltas[n] =
    Delta_n, n = 0..N, of the caller's free sweep (`oracle.delta_table`).

    theta_1, theta_2 come from the Edgeworth polynomials at zero
    (edgeworth.delta_coeffs).
    """
    psi = psi_scalars(deltas, edgeworth.delta_coeffs(law))
    mu = mu_coeffs(psi)
    e0 = math.exp(psi.psi0)
    return Tau0Coefficients(nu=(e0, e0 * mu[2], e0 * mu[4]), mu=mu, psi=psi)


def evaluate_tau0(coeffs: Tau0Coefficients, N: int, terms: int) -> np.ndarray:
    """Approximation of P(tau_0 > n), n = 0..N, using 1..3 terms."""
    if not 1 <= terms <= 3:
        raise ValueError("terms must be 1, 2, or 3")
    out = np.zeros(N + 1)
    for ell in range(1, terms + 1):
        out += coeffs.nu[ell - 1] * basis.a_float(ell, N)
    return out
