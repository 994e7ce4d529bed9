"""The coefficient functions V_j(x) of the tau_x tail
expansion, the killed step (P - I), their polyharmonic certification, and
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

from dataclasses import dataclass

import numpy as np

from . import conditioned, edgeworth, oracle, tau0
from .oracle import NotLeftContinuous
from .walk import LatticeLaw

__all__ = [
    "VLadder",
    "DomainGap",
    "GridTooShort",
    "PolyTailFit",
    "PolyCheck",
    "Certificate",
    "v_ladder",
    "v_leftcont",
    "killed_step",
    "polyharm_defect",
    "v2_identity_residual",
    "ladder_reach",
    "certify",
    "poly_tail_fit",
]

# poly_tail_fit passes when its last-quartile residuals stay below this
# fraction of the function scale
POLY_TAIL_REL_TOL = 1e-3


class DomainGap(ValueError):
    """Operator application needs function values outside the given window."""


class GridTooShort(ValueError):
    """Polynomial tail fit needs a longer x-grid."""


@dataclass(frozen=True)
class VLadder:
    V: np.ndarray  # V[j-1, x] for j = 1..J, x = 0..x_max
    nu: tuple[float, ...] | None = None  # nu_1..nu_J of the duality route

    def __getitem__(self, j: int) -> np.ndarray:
        return self.V[j - 1]


@dataclass(frozen=True)
class PolyTailFit:
    coefficients: np.ndarray  # ascending
    passed: bool


def v_ladder(law: LatticeLaw, x_max: int, J: int, N: int, free=None) -> VLadder:
    """V_1..V_J on x = 0..x_max via the duality assembly.  free, when given,
    is (tau0.tau0_coeffs(law, N, deltas=delta), p) for (delta, p) =
    `oracle.delta_table(law, N, xs)`, xs covering -x_max..0, already
    computed elsewhere."""
    if J < 1:
        raise ValueError("J must be >= 1")
    law.require_expansion_ready()
    # one free sweep serves both factors of the duality assembly: Delta_n
    # for T_0 and, mirrored as P(S~_n = x) = P(S_n = -x), the reversed
    # walk's point masses for B-tilde
    if free is None:
        delta, p = oracle.delta_table(law, N, xs=range(-x_max, 1))
        free = tau0.tau0_coeffs(law, N=N, deltas=delta), p
    co, p = free
    mup = [co.nu[0] * m for m in co.mu]  # mu'_i = exp(psi_0) mu_i, i = 0..4
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
    return VLadder(V=V, nu=tuple(co.nu[:J]))


def v_leftcont(law: LatticeLaw, x_max: int, J: int) -> VLadder:
    """Closed form for left-continuous walks, a polynomial of degree 2j - 1:

        V_j(x) = (2 / (2j - 1)) * x * theta_(j-1)(-x).

    Derivation: P(tau_x > n) = x sum_(m>n) p_m(-x)/m with the kernel
    identity a_(m-1)^(i+1)/m = -(2/(2i+1)) a_m^(i+2), whose tail telescopes
    to (2/(2i+1)) a_n^(i+1)."""
    if not law.left_continuous:
        raise NotLeftContinuous("law has downward jumps larger than 1")
    thetas = edgeworth.theta_polys(law, 2 * J)
    xs = np.arange(x_max + 1, dtype=float)
    V = np.array([(2.0 / (2 * j - 1)) * xs * thetas[j - 1](-xs) for j in range(1, J + 1)])
    return VLadder(V=V)


def killed_step(law: LatticeLaw, f: np.ndarray) -> np.ndarray:
    """(P - I)f(x) = sum_(v: x+v>0) P(X = v) f(x + v) - f(x), the walk killed
    at <= 0, on x = 1..len(f) - 1 - h with h the largest upward jump: one
    slice-add per atom.  Entry 0 of the result is 0."""
    f = np.asarray(f, dtype=float)
    out = np.zeros(f.size - max(law.support))
    for v, p in law.atoms.items():
        lo = max(1, 1 - v)  # x + v > 0
        if lo < out.size:  # else a long downward jump would wrap the slice of f
            out[lo:] += float(p) * f[lo + v : out.size + v]
    out[1:] -= f[1 : out.size]
    return out


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
    g = f_values
    for _ in range(k):
        g = killed_step(law, g)
    return float(np.max(np.abs(g[lo : hi + 1])))


def v2_identity_residual(
    step_v2: np.ndarray, v1: np.ndarray, x_window: tuple[int, int]
) -> float:
    """Sup-norm relative residual of (P - I)V_2 = V_1 over the window, from
    step_v2 = killed_step(law, V_2) and V_1."""
    lo, hi = x_window
    if hi >= step_v2.size:
        raise DomainGap("ladder window too small for the operator step")
    rhs = v1[lo : hi + 1]
    return float(np.max(np.abs(step_v2[lo : hi + 1] - rhs))) / float(np.max(np.abs(rhs)))


@dataclass(frozen=True)
class PolyCheck:
    name: str  # verify's check name
    key: str  # key under the taux artifact's polyharmonic_checks
    measure: str  # what `value` is, for reports
    value: float
    limit: float

    @property
    def passed(self) -> bool:
        return self.value <= self.limit


@dataclass(frozen=True)
class Certificate:
    ladder: VLadder  # V_1..V_J on x = 0..x_max plus the operator headroom
    checks: tuple[PolyCheck, ...]


def ladder_reach(law: LatticeLaw, x_max: int, J: int) -> int:
    """The top state of `certify`'s ladder: x_max plus J * (largest upward
    jump), the states that J operator steps read, plus 2."""
    if x_max < 1:
        raise ValueError(f"x-max must be >= 1 for the polyharmonic checks, got {x_max}")
    return x_max + J * max(law.support) + 2


def certify(law: LatticeLaw, x_max: int, J: int, N: int, free=None) -> Certificate:
    """V_1..V_J and their polyharmonic checks on the window x = 1..x_max:

      polyharmonic V1           sup |(P - I)V_1|                          <= 1e-6
      polyharmonic V2 identity  relative residual of (P - I)V_2 = V_1    <= 1e-2
      polyharmonic V2 (P-I)^2   sup |(P - I)^2 V_2| / sup |V_2|          <= 1e-2

    (the V_2 checks for J >= 2) on the ladder up to `ladder_reach`.  free is
    as in `v_ladder`, covering -ladder_reach(law, x_max, J)..0.
    """
    ladder = v_ladder(law, x_max=ladder_reach(law, x_max, J), J=J, N=N, free=free)
    window = (1, x_max)
    d1 = polyharm_defect(law, ladder[1], 1, window)
    checks = [PolyCheck("polyharmonic V1", "harmonic_defect_V1", "defect", d1, 1e-6)]
    if J >= 2:
        step_v2 = killed_step(law, ladder[2])  # (P - I)V_2, read by both V_2 checks
        resid = v2_identity_residual(step_v2, ladder[1], window)
        d2 = polyharm_defect(law, step_v2, 1, window)
        rel = d2 / float(np.max(np.abs(ladder[2][1 : x_max + 1])))
        checks += [
            PolyCheck("polyharmonic V2 identity", "v2_identity_residual", "residual", resid, 1e-2),
            PolyCheck(
                "polyharmonic V2 (P-I)^2", "biharmonic_defect_V2_rel", "relative defect", rel, 1e-2
            ),
        ]
    return Certificate(ladder=ladder, checks=tuple(checks))


def poly_tail_fit(xs: np.ndarray, values: np.ndarray, degree: int) -> PolyTailFit:
    """Least-squares polynomial of the given degree on the upper half of the
    grid; PASS when last-quartile residuals stay below POLY_TAIL_REL_TOL
    times the function scale (V_k = polynomial + exponentially small
    correction)."""
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
    passed = bool(np.max(np.abs(last_q)) <= POLY_TAIL_REL_TOL * scale)
    return PolyTailFit(coefficients=coef, passed=passed)
