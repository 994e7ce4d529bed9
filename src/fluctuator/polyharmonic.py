"""The coefficient functions V_j(x) of the tau_x tail
expansion, the killed transition operator, polyharmonicity diagnostics, and
polynomial-tail fits.

Assembly (duality route): with T_x(s) = sum_n P(tau_x > n) s^n and the
strict-ladder generating functions B-tilde(s, y) of the reversed walk,

    T_x(s) = (1 + sum_(y<x) B-tilde(s, y)) * T_0(s),

so the coefficient of (1-s)^(j/2) in sqrt(1-s) T_x(s) is

    Q_j(x) = mu'_(j+1) + sum_(k=-1..j) mu'_(k+1) Qt_(j-k)(x),

with mu'_i = exp(psi_0) mu_i from the tau_0 pipeline and Qt_l(x) =
sum_(y<x) q-tilde_l(y) the summed strict ladder (n >= 1 convention: the
n = 0 atom of q-tilde_0 belongs to the standalone term).  V_j = Q_(2j-3),
pinned by the DP ratio test: V_1(x) = mu'_0 (1 + Qt_0(x)) and V_j(0) = nu_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis, conditioned, edgeworth, oracle, tau0
from .oracle import NotLeftContinuous
from .walk import LatticeLaw

__all__ = [
    "VLadder",
    "KilledOperator",
    "DomainGap",
    "GridTooShort",
    "PolyTailFit",
    "v_ladder",
    "v_leftcont",
    "apply_killed",
    "polyharm_defect",
    "v2_identity_residual",
    "poly_tail_fit",
]


class DomainGap(ValueError):
    """Operator application needs function values outside the given window."""


class GridTooShort(ValueError):
    """Polynomial tail fit needs a longer x-grid."""


@dataclass(frozen=True)
class VLadder:
    x_max: int
    V: np.ndarray  # V[j-1, x] for j = 1..J, x = 0..x_max
    source: str  # "ladder" | "leftcont"
    nu: tuple[float, ...] | None = None

    def __getitem__(self, j: int) -> np.ndarray:
        return self.V[j - 1]


@dataclass(frozen=True)
class KilledOperator:
    """Pf(x) = E[f(x + X); x + X > 0] for the walk killed at <= 0."""

    law: LatticeLaw


@dataclass(frozen=True)
class PolyTailFit:
    degree: int
    coefficients: np.ndarray  # ascending
    residuals: np.ndarray  # per grid point of the fit window
    xs: np.ndarray
    passed: bool


def v_ladder(
    law: LatticeLaw, x_max: int, J: int, N: int = 1 << 13
) -> VLadder:
    """V_1..V_J on x = 0..x_max via the duality assembly."""
    if J < 1:
        raise ValueError("J must be >= 1")
    law.require_expansion_ready()
    # one free sweep serves both factors of the duality assembly: Delta_n
    # for T_0 and, mirrored as P(S~_n = x) = P(S_n = -x), the reversed
    # walk's point masses for B-tilde
    delta, p = oracle.delta_table(law, N, xs=range(-x_max, 1))
    co = tau0.tau0_coeffs(law, N=N, theta_mode="analytic", deltas=delta)
    mu = tau0.mu_coeffs(co.psi)
    e0 = math.exp(co.psi.psi0)
    mup = [e0 * m for m in mu]  # mu'_0..mu'_4
    L = 2 * J - 2  # highest strict ladder index needed: Q_(2J-3) uses Qt_(2J-2)
    ws = conditioned.make_workspace(
        law.reverse(), x_max=x_max, N=N, traces={x: p[-x] for x in range(x_max + 1)}
    )
    lad = conditioned.q_ladder(ws, max(L, 1), strict=True)
    qt = lad.q.copy()
    qt[0, 0] -= 1.0  # drop the n = 0 atom: assembly uses n >= 1 ladders
    Qt = np.zeros((qt.shape[0], x_max + 1))
    Qt[:, 1:] = np.cumsum(qt[:, :-1], axis=1)  # Qt_l(x) = sum_(y<x) qt_l(y)
    V = np.zeros((J, x_max + 1))
    for j in range(1, J + 1):
        m = 2 * j - 3
        acc = np.full(x_max + 1, mup[m + 1])
        for k in range(-1, m + 1):
            acc += mup[k + 1] * Qt[m - k]
        V[j - 1] = acc
    return VLadder(x_max=x_max, V=V, source="ladder", nu=tuple(co.nu[:J]))


def v_leftcont(law: LatticeLaw, x_max: int, J: int) -> VLadder:
    """Closed form for left-continuous walks, a polynomial of degree 2j - 1:

        V_j(x) = (2 / (2j - 1)) * x * theta_(j-1)(-x).

    Derivation: P(tau_x > n) = x sum_(m>n) p_m(-x)/m with the kernel
    identity a_(m-1)^(i+1)/m = -(2/(2i+1)) a_m^(i+2), whose tail telescopes
    to (2/(2i+1)) a_n^(i+1)."""
    if not law.tag.left_continuous:
        raise NotLeftContinuous("law has downward jumps larger than 1")
    thetas = edgeworth.theta_polys(law, 2 * J)
    xs = np.arange(x_max + 1, dtype=float)
    V = np.zeros((J, x_max + 1))
    for j in range(1, J + 1):
        V[j - 1] = (2.0 / (2 * j - 1)) * xs * np.array(
            [thetas[j - 1](-x) for x in xs]
        )
    return VLadder(x_max=x_max, V=V, source="leftcont")


def apply_killed(op: KilledOperator, f, x: int) -> float:
    """Exact finite sum sum_(v: x+v>0) f(x+v) P(X = v).

    `f` is a callable on positive integers or an array indexed by x.
    """
    def get(y: int) -> float:
        if callable(f):
            return float(f(y))
        if y >= len(f):
            raise DomainGap(f"need f({y}) beyond the provided window")
        return float(f[y])

    acc = 0.0
    for v, p in op.law.atoms.items():
        y = x + v
        if y > 0:
            acc += float(p) * get(y)
    return acc


def polyharm_defect(
    law: LatticeLaw,
    f_values: np.ndarray,
    k: int,
    x_window: tuple[int, int],
) -> float:
    """sup_{x in window} |(P - I)^k f(x)|.

    f_values[x] must cover the window inflated by k * max upward jump.
    """
    lo, hi = x_window
    if lo < 1:
        raise ValueError("window must sit in x >= 1")
    need = hi + k * max(law.support)
    if need >= len(f_values):
        raise DomainGap(
            f"need f up to x = {need}, given {len(f_values) - 1}"
        )
    op = KilledOperator(law)
    g = np.asarray(f_values, dtype=float).copy()
    top = len(g) - 1
    for it in range(k):
        nxt = np.zeros_like(g)
        top -= max(law.support)
        for x in range(1, top + 1):
            nxt[x] = apply_killed(op, g, x) - g[x]
        g = nxt
    return float(np.max(np.abs(g[lo : hi + 1])))


def v2_identity_residual(
    law: LatticeLaw, ladder: VLadder, x_window: tuple[int, int]
) -> tuple[int, float]:
    """Auto-detect the sign c in (P - I)V_2 = c V_1 and return
    (c, sup-norm relative residual over the window)."""
    lo, hi = x_window
    op = KilledOperator(law)
    v1 = ladder[1]
    v2 = ladder[2]
    if hi + max(law.support) > ladder.x_max:
        raise DomainGap("ladder window too small for the operator step")
    xs = np.arange(lo, hi + 1)
    lhs = np.array([apply_killed(op, v2, x) - v2[x] for x in xs])
    rhs = v1[xs]
    c = 1 if float(np.dot(lhs, rhs)) >= 0 else -1
    scale = float(np.max(np.abs(rhs)))
    resid = float(np.max(np.abs(lhs - c * rhs))) / scale
    return c, resid


def poly_tail_fit(
    xs: np.ndarray,
    values: np.ndarray,
    degree: int,
    rel_tol: float = 1e-3,
) -> PolyTailFit:
    """Least-squares polynomial of the given degree on the upper half of the
    grid; PASS when last-quartile residuals stay below rel_tol times the
    function scale (V_k = polynomial + exponentially small correction)."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.size < 4 * (degree + 2):
        raise GridTooShort(f"need at least {4 * (degree + 2)} grid points")
    half = xs.size // 2
    fit_x, fit_v = xs[half:], values[half:]
    # scale x for conditioning
    x0 = fit_x.max()
    cols = np.stack([(fit_x / x0) ** p for p in range(degree + 1)], axis=1)
    coef_scaled, *_ = np.linalg.lstsq(cols, fit_v, rcond=None)
    coef = coef_scaled / x0 ** np.arange(degree + 1)
    resid = fit_v - cols @ coef_scaled
    scale = float(np.max(np.abs(fit_v)))
    last_q = resid[-(resid.size // 4) :]
    passed = bool(np.max(np.abs(last_q)) <= rel_tol * scale)
    return PolyTailFit(
        degree=degree, coefficients=coef, residuals=resid, xs=fit_x, passed=passed
    )
