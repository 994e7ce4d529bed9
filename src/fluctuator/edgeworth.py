"""Edgeworth machinery: Hermite polynomials, cumulant-partition sums, the
CDF terms Q_nu and density terms q_nu, lattice corrections at zero, the
local-expansion polynomials theta_j(x), and the correction coefficients
(theta_1, theta_2) for Delta_n / n.

Coefficient assembly runs in extended precision (mpmath, 40 digits) because
the analytic theta values arise from cancellations between continuous
Edgeworth terms and lattice corrections of comparable size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp

from . import basis, oracle
from .walk import LatticeLaw, SpanNotOne

__all__ = [
    "Polynomial",
    "GaussPoly",
    "CdfExpansionAtZero",
    "MissingCumulant",
    "FitUnstable",
    "hermite",
    "partition_tuples",
    "edgeworth_Q",
    "local_edgeworth_q",
    "theta_polys",
    "s_nu_zero",
    "delta_coeffs",
    "S1_AT_ZERO",
]

# Value assigned to the first periodic Bernoulli factor S_1 at its jump
# point.  The CDF expansion is evaluated exactly on the lattice, where S_1
# is discontinuous; we take the right limit, which is the convention that
# reproduces the exact symmetric-walk identity Delta_n = -p_n(0)/2.
S1_AT_ZERO = Fraction(1, 2)
# horizon of the DP that delta_coeffs' fit mode regresses on
DELTA_FIT_N = 1 << 12


class MissingCumulant(ValueError):
    """Requested order exceeds the cumulants supplied."""


class FitUnstable(RuntimeError):
    """Regression design matrix is too ill-conditioned to trust."""


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial in x, ascending coefficients, trailing zeros trimmed."""

    coefficients: tuple

    @staticmethod
    def from_coeffs(cs) -> "Polynomial":
        cs = list(cs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return Polynomial(coefficients=tuple(cs))

    def __call__(self, x):
        acc = self.coefficients[-1] * 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return Polynomial.from_coeffs(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            a, b = self.coefficients, other.coefficients
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            return Polynomial.from_coeffs(out)
        return Polynomial.from_coeffs([c * other for c in self.coefficients])

    __rmul__ = __mul__

    def deriv(self) -> "Polynomial":
        cs = self.coefficients
        if len(cs) == 1:
            return Polynomial.from_coeffs([cs[0] * 0])
        return Polynomial.from_coeffs([i * cs[i] for i in range(1, len(cs))])

    def shift_x(self) -> "Polynomial":
        """Multiply by x."""
        return Polynomial.from_coeffs((self.coefficients[0] * 0,) + self.coefficients)


@dataclass(frozen=True)
class GaussPoly:
    """poly(x) * exp(-x^2/2) / sqrt(2*pi)."""

    poly: Polynomial

    def deriv(self) -> "GaussPoly":
        p = self.poly
        return GaussPoly(poly=p.deriv() + (-1) * p.shift_x())

    def at_zero(self):
        return self.poly.coefficients[0] / mp.sqrt(2 * mp.pi)

    def __call__(self, x):
        return self.poly(x) * mp.exp(-mp.mpf(x) ** 2 / 2) / mp.sqrt(2 * mp.pi)

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        return GaussPoly(poly=self.poly + other.poly)

    def __mul__(self, scalar):
        return GaussPoly(poly=self.poly * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class CdfExpansionAtZero:
    """Delta_n / n ~ theta1 a_(n-1)^(2) + theta2 a_(n-1)^(3), with
    Delta_n = 1/2 - P(S_n <= 0)."""

    theta1: float
    theta2: float


@lru_cache(maxsize=None)
def hermite(m: int) -> Polynomial:
    """Probabilists' Hermite polynomial, exact integer coefficients."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Polynomial.from_coeffs([1])
    if m == 1:
        return Polynomial.from_coeffs([0, 1])
    return hermite(m - 1).shift_x() + (-(m - 1)) * hermite(m - 2)


def partition_tuples(nu: int) -> list[tuple[int, ...]]:
    """Nonnegative (k_1..k_nu) with k_1 + 2 k_2 + ... + nu k_nu = nu."""
    out: list[tuple[int, ...]] = []

    def rec(part: int, remaining: int, acc: list[int]) -> None:
        if part == nu:
            acc.append(remaining // nu if remaining % nu == 0 else -1)
            if acc[-1] >= 0:
                out.append(tuple(acc))
            acc.pop()
            return
        for k in range(remaining // part + 1):
            acc.append(k)
            rec(part + 1, remaining - part * k, acc)
            acc.pop()

    rec(1, nu, [])
    return out


def _to_mpf(value) -> mp.mpf:
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def _partition_weight(ks: tuple[int, ...], cumulants, sigma) -> mp.mpf:
    w = mp.mpf(1)
    for m, km in enumerate(ks, start=1):
        if km == 0:
            continue
        kappa = cumulants(m + 2)
        w *= (_to_mpf(kappa) / (math.factorial(m + 2) * sigma ** (m + 2))) ** km
        w /= math.factorial(km)
    return w


def _cumulant_fn(law_or_fn, max_order: int):
    if callable(law_or_fn):
        return law_or_fn
    ks = law_or_fn.cumulants(max_order)

    def fn(order: int):
        if order > max_order:
            raise MissingCumulant(f"cumulant of order {order} not available")
        return ks[order - 1]

    return fn


def edgeworth_Q(nu: int, cumulants, sigma) -> GaussPoly:
    """CDF correction Q_nu(x) = -phi(x) sum over partitions of nu of
    H_(nu+2s-1)(x) * prod (1/k_m!) (kappa_(m+2) / ((m+2)! sigma^(m+2)))^k_m."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    cfn = _cumulant_fn(cumulants, nu + 2)
    sigma = mp.mpf(sigma)
    acc = Polynomial.from_coeffs([mp.mpf(0)])
    for ks in partition_tuples(nu):
        s = sum(ks)
        w = _partition_weight(ks, cfn, sigma)
        acc = acc + w * _mp_poly(hermite(nu + 2 * s - 1))
    return GaussPoly(poly=(-1) * acc)


def local_edgeworth_q(nu: int, cumulants, sigma) -> GaussPoly:
    """Density correction q_nu(t): same sum with Hermite index nu + 2s and
    positive sign; satisfies q_nu = Q_nu'."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    cfn = _cumulant_fn(cumulants, nu + 2)
    sigma = mp.mpf(sigma)
    acc = Polynomial.from_coeffs([mp.mpf(0)])
    for ks in partition_tuples(nu):
        s = sum(ks)
        w = _partition_weight(ks, cfn, sigma)
        acc = acc + w * _mp_poly(hermite(nu + 2 * s))
    return GaussPoly(poly=acc)


def _mp_poly(p: Polynomial) -> Polynomial:
    return Polynomial.from_coeffs([mp.mpf(c) for c in p.coefficients])


def theta_polys(law: LatticeLaw, r: int) -> list[Polynomial]:
    """Polynomials theta_0..theta_J, J = floor(r/2), such that
    p_n(x) ~ sum_j theta_j(x) a_(n-1)^(j+1); theta_j has degree exactly 2j.

    Built by expanding (1/(sigma sqrt(n))) [phi(t) + sum q_nu(t) n^(-nu/2)],
    t = x/(sigma sqrt(n)), as a bivariate series in (x, n^(-1/2)), collecting
    the n^(-(j+1/2)) ladder and converting it to the shifted a-basis.
    """
    law.require_expansion_ready()
    J = r // 2
    sig = mp.mpf(law.variance.numerator) / law.variance.denominator
    sigma = mp.sqrt(sig)
    cfn = _cumulant_fn(law, 2 * J + 2)

    with mp.workdps(40):
        pref = 1 / (sigma * mp.sqrt(2 * mp.pi))
        # f[j][p] = coefficient of x^p in the n^-(j+1/2) ladder term
        f = [[mp.mpf(0)] * (2 * j + 1) for j in range(J + 1)]

        def add_gauss_term(nu: int, herm: Polynomial, weight) -> None:
            # weight * phi(t) * herm(t) * n^(-nu/2) / (sigma sqrt(n))
            hc = herm.coefficients
            for m, hm in enumerate(hc):
                if hm == 0:
                    continue
                for k in range(J + 1):
                    twoj = 2 * k + m + nu
                    if twoj % 2 or twoj // 2 > J:
                        continue
                    j = twoj // 2
                    d_k = mp.mpf(-1) ** k / (math.factorial(k) * (2 * sig) ** k)
                    f[j][2 * j - nu] += (
                        weight * pref * d_k * mp.mpf(hm) / sigma**m
                    )

        add_gauss_term(0, hermite(0), mp.mpf(1))
        for nu in range(1, 2 * J + 1):
            for ks in partition_tuples(nu):
                s = sum(ks)
                w = _partition_weight(ks, cfn, sigma)
                if w:
                    add_gauss_term(nu, hermite(nu + 2 * s), w)

        # n^-(i+1/2) = sum_k gamma_k a_(n-1)^(k), k = i+1 .. J+1
        thetas = [[mp.mpf(0)] * (2 * j + 1) for j in range(J + 1)]
        for i in range(J + 1):
            conv = basis.power_to_shifted_basis(i + 1, J + 1)
            for k, gamma in conv.coefficients.items():
                j = k - 1
                for p, c in enumerate(f[i]):
                    thetas[j][p] += mp.mpf(gamma) * c
    return [
        Polynomial.from_coeffs([float(c) for c in row]) for row in thetas
    ]


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, by the defining recurrence."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += Fraction(math.comb(n + 1, k)) * _bernoulli(k)
    return -acc / (n + 1)


def s_nu_zero(nu: int) -> float:
    """S_nu(0) for nu >= 2: zero at odd nu, 2 zeta(2k) / (2 pi)^(2k) =
    (-1)^(k+1) B_(2k) / (2k)! at nu = 2k."""
    if nu < 2:
        raise ValueError("defined for nu >= 2; nu = 1 is convention-dependent")
    if nu % 2:
        return 0.0
    k = nu // 2
    return float(Fraction((-1) ** (k + 1)) * _bernoulli(2 * k) / math.factorial(2 * k))


def _delta_coeffs_analytic(law: LatticeLaw) -> tuple[float, float]:
    """(A, B): Delta_n ~ A n^(-1/2) + B n^(-3/2) from the Edgeworth CDF
    expansion at 0 plus the lattice (periodic Bernoulli) corrections."""
    sig2 = mp.mpf(law.variance.numerator) / law.variance.denominator
    sigma = mp.sqrt(sig2)
    cfn = _cumulant_fn(law, 5)
    with mp.workdps(40):
        Q1 = edgeworth_Q(1, cfn, sigma)
        Q2 = edgeworth_Q(2, cfn, sigma)
        Q3 = edgeworth_Q(3, cfn, sigma)
        phi = GaussPoly(poly=Polynomial.from_coeffs([mp.mpf(1)]))
        s1 = mp.mpf(S1_AT_ZERO.numerator) / S1_AT_ZERO.denominator
        s2 = mp.mpf(s_nu_zero(2))
        # P(S_n <= 0) - 1/2 = [Q1(0) + s1 phi(0)/sigma] n^-1/2
        #   + [Q3(0) + s1 Q2'(0)/sigma + s2 Q1''(0)/sigma^2] n^-3/2 + ...
        c_half = Q1.at_zero() + s1 * phi.at_zero() / sigma
        c_three = (
            Q3.at_zero()
            + s1 * Q2.deriv().at_zero() / sigma
            + s2 * Q1.deriv().deriv().at_zero() / sigma**2
        )
        return float(-c_half), float(-c_three)


def _ab_to_theta(A: float, B: float) -> tuple[float, float]:
    """Convert Delta_n ~ A n^(-1/2) + B n^(-3/2) to Delta_n/n ~
    theta1 a_(n-1)^(2) + theta2 a_(n-1)^(3).

    In the unshifted basis n^(-3/2) = Gamma(-1/2) a_n^(2) - (3/8)
    Gamma(-3/2) a_n^(3) + ..., giving theta1 = -2 sqrt(pi) A and an
    unshifted theta2 = (4 sqrt(pi)/3)(B - (3/8) A); shifting the basis via
    a_(n-1)^(2) = a_n^(2) - a_n^(3) adds theta1 to theta2.
    """
    sp = math.sqrt(math.pi)
    t1 = -2.0 * sp * A
    return t1, (4.0 * sp / 3.0) * (B - 0.375 * A) + t1


def delta_coeffs(law: LatticeLaw, mode: str) -> CdfExpansionAtZero:
    """First two correction coefficients of Delta_n / n in the shifted
    a-basis.

    fit mode regresses exact DP values of Delta_n / n on
    {a_(n-1)^(2), a_(n-1)^(3)} with a nuisance a_(n-1)^(4) column over a
    geometric grid in [DELTA_FIT_N/8, DELTA_FIT_N]; analytic mode assembles
    the same numbers from Edgeworth terms at zero plus lattice corrections.
    The fit is convention-free ground truth; the analytic value depends on
    the S_1(0) jump convention.
    """
    law.require_expansion_ready()
    if mode == "analytic":
        return CdfExpansionAtZero(*_ab_to_theta(*_delta_coeffs_analytic(law)))
    if mode != "fit":
        raise ValueError("mode must be 'fit' or 'analytic'")
    deltas, _ = oracle.delta_table(law, DELTA_FIT_N)
    grid = basis._geometric_grid(max(8, DELTA_FIT_N // 8), DELTA_FIT_N, 28)
    cols = [2, 3, 4]
    with mp.workdps(40):
        Amat = mp.matrix(len(grid), len(cols))
        bvec = mp.matrix(len(grid), 1)
        for row, n in enumerate(grid):
            w = mp.mpf(n) ** mp.mpf("3.5")
            for cidx, j in enumerate(cols):
                Amat[row, cidx] = basis.a_value_mp(j, n - 1) * w
            bvec[row] = mp.mpf(deltas[n]) / n * w
        # condition of the two-coefficient design (nuisance column excluded)
        sub = np.array(
            [[float(Amat[r, c]) for c in range(2)] for r in range(len(grid))]
        )
        cond = float(np.linalg.cond(sub))
        if cond > 1e6:
            raise FitUnstable(f"design condition number {cond:.3e} > 1e6")
        sol, _ = mp.qr_solve(Amat, bvec)
    return CdfExpansionAtZero(float(sol[0]), float(sol[1]))
