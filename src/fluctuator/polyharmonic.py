"""The coefficient functions V_j(x) of the tau_x tail expansion (closed form
and the paper's duality assembly) and U_j(x) of the conditioned local
probabilities (closed form), each a float array F[j - 1, x] = F_j(x), the
killed step (P - I), the polyharmonic certification of a V ladder, and
polynomial-tail fits.

Assembly (duality route, the paper's): with T_x(s) = sum_n P(tau_x > n) s^n
and the strict-ladder generating functions B-tilde(s, y) of the reversed walk,

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
from functools import cache

import numpy as np

from . import conditioned, edgeworth, oracle, tau0
from .oracle import NotLeftContinuous, ResourceCapExceeded
from .walk import LatticeLaw

__all__ = [
    "GridTooShort",
    "PolyTailFit",
    "PolyCheck",
    "v_ladder",
    "v_wiener_hopf",
    "u_wiener_hopf",
    "route_gap",
    "route_window",
    "v_leftcont",
    "killed_step",
    "ladder_reach",
    "certify",
    "poly_tail_fit",
]

# poly_tail_fit passes when its last-quartile residuals stay below this
# fraction of the function scale
POLY_TAIL_REL_TOL = 1e-3
# verify's paper-route gap limit
ROUTE_GAP_TOL = 1e-2
# certify's limit on each line, relative to the window's sup of the V_j checked: the
# closed form reads at most 1.3e-13 (down_120; 96 pool laws, up_500, the double-root
# law, x-max 10..1000), and skewed's V_2(10) off by 1e-6 relative reads 2.6e-8
CERTIFY_TOL = 1e-9
# states v_wiener_hopf or u_wiener_hopf may hold: 65536 states of V_1, V_2
# are about 17 MB of taux_coeffs.json
LADDER_STATE_CAP = 1 << 16


class GridTooShort(ValueError):
    """Polynomial tail fit needs a longer x-grid."""


@dataclass(frozen=True)
class PolyTailFit:
    coefficients: np.ndarray  # ascending
    passed: bool


def v_ladder(
    law: LatticeLaw, x_max: int, J: int, coeffs: tau0.Tau0Coefficients, points: dict
) -> np.ndarray:
    """V[j - 1, x] = V_j(x) for j = 1..J on x = 0..x_max via the duality
    assembly, from one free sweep of the law: coeffs = tau0.tau0_coeffs(law,
    delta) for T_0 and points[x][n] = P(S_n = x) at x = -x_max..0 for
    B-tilde, mirrored as the reversed walk's point masses P(S~_n = x) =
    P(S_n = -x), with (delta, points) = `oracle.delta_table(law, N, xs)`.
    V_j(0) = mu'_(2j-2) = nu_j, as Qt_l(0) = 0."""
    if J < 1:
        raise ValueError("J must be >= 1")
    mup = [coeffs.nu[0] * m for m in coeffs.mu]  # mu'_i = exp(psi_0) mu_i, i = 0..4
    L = 2 * J - 2  # highest strict ladder index needed: Q_(2J-3) uses Qt_(2J-2)
    traces = {x: points[-x] for x in range(x_max + 1)}
    qt = conditioned.q_ladder(law.reverse(), traces, x_max, max(L, 1), strict=True)
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
    return V


@cache
def _lags(M: int) -> tuple[np.ndarray, np.ndarray]:
    lag = np.arange(M) - np.arange(M)[:, None]  # m - c at [c, m], one per size
    return lag >= 0, np.maximum(lag, 0)


def _toeplitz(b: np.ndarray) -> np.ndarray:
    """The upper triangular Toeplitz matrices of the power series b in t
    (last axis), b[..., m - c] at [..., c, m]: a @ _toeplitz(b) is a b."""
    mask, idx = _lags(b.shape[-1])
    return np.where(mask, b[..., idx], 0.0)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of the power series in t a (last axis) and b (1-D), truncated."""
    return a @ _toeplitz(b)


def _recur(rows: np.ndarray, E: np.ndarray, k: int) -> None:
    """E[i] = -sum_r rows[r] E[i - k + r] as power series in t, for i >= k:
    one block-Toeplitz matrix steps the recurrence."""
    T = -_toeplitz(rows).reshape(-1, rows.shape[-1])
    for i in range(k, len(E)):
        E[i] = E[i - k : i].reshape(-1) @ T


def _compose(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """C(z(t)) for the polynomial c (highest power first), by Horner."""
    out, T = np.zeros_like(z), _toeplitz(z)
    for ck in c:
        out = out @ T
        out[0] += ck
    return out


def _factor(g: np.ndarray, p: np.ndarray, a0: np.ndarray, M: int) -> np.ndarray:
    """Hensel lifting: the monic factor A of g + t^2 P with A = a0 at t = 0,
    g = a0 b0 (b0 by np.polydiv's synthetic division, bit for bit), as rows
    of t-coefficients, (len(a0), M).  Order k solves a0 B_k + b0 A_k =
    [k = 2] P - sum_(0<i<k) A_i B_(k-i) in the Sylvester matrix of a0 and b0,
    nonsingular when they share no root: repeated roots within a0 cost nothing."""
    d, n = len(a0), len(g)
    b0, r = np.zeros(n - d + 1), g.copy()  # polydiv would also trim the unused remainder
    for k in range(n - d + 1):
        b0[k] = 1.0 / a0[0] * r[k]
        r[k : k + d] -= b0[k] * a0
    S = np.zeros((n, n))
    for i in range(n - d + 1):
        S[i : i + d, i] = a0
    for k in range(d - 1):
        S[k + 1 : k + n - d + 2, n - d + 1 + k] = b0
    # lstsq, not solve or inv: the tau0 fits already load its LAPACK
    # driver, and the others would add 0.25 MB of resident code
    Sinv = np.linalg.lstsq(S, np.eye(n), rcond=None)[0]
    A, B = np.zeros((M, d)), np.zeros((M, n - d + 1))
    A[0], B[0] = a0, b0
    for k in range(1, M):
        rhs = p * (k == 2) - sum(np.convolve(A[i], B[k - i]) for i in range(1, k))
        x = Sinv @ rhs
        B[k], A[k, 1:] = x[: n - d + 1], x[n - d + 1 :]
    return A.T


def _side_factor(
    law: LatticeLaw, q: np.ndarray, a0: np.ndarray, M: int
) -> tuple[np.ndarray, np.ndarray]:
    """(R, P): R the monic factor of the d small roots of z^d (1 - s phi(z))
    for jumps in [-d, h], s = 1 - t^2, as rows of t-coefficients (highest
    power of z first, M orders of t), and P = z^d phi(z), highest power
    first, from the Q and inside factor a0 of `oracle.ladder_roots`.  The
    root near 1 is lifted by a fixed-slope iteration, one order of t a
    step, M - 1 steps; the roots near those of a0 together as one factor."""
    d, h = -law.support[0], law.support[-1]
    p = np.zeros(d + h + 1)  # p_v at h - v
    p[h - np.array(law.support)] = [float(pv) for pv in law.atoms.values()]
    g = np.eye(1, d + h + 1, h)[0] - p  # z^d (1 - phi(z)) = (z - 1)^2 Q(z)
    # at 1: z = 1 + t v, v^2 Q(z) + P(z) = 0, v(0) = -sqrt(2)/sigma; a step
    # divides by the v-derivative 2 v(0) Q(1) and gains one order of t
    v = -np.eye(1, M)[0] * np.sqrt(2 / float(law.variance))
    slope = 2 * v[0] * np.polyval(q, 1.0)
    for _ in range(M - 1):
        z1 = np.concatenate([[1.0], v[:-1]])
        v = v - (_mul(_mul(v, v), _compose(q, z1)) + _compose(p, z1)) / slope
    z1 = np.concatenate([[1.0], v[:-1]])
    R = np.vstack([_factor(g, p, a0, M), np.zeros(M)])  # (z - z1) A
    R[1:] -= _mul(R[:-1], z1)
    return R, p


def v_wiener_hopf(law: LatticeLaw, x_max: int, J: int) -> np.ndarray:
    """V[j - 1, x] = V_j(x) for j = 1..J on x = 0..x_max, and nu_j = V_j(0),
    with no horizon.  Put s = 1 - t^2.  Over the d small roots z_i(t) of
    z^d (1 - s phi(z)) for jumps in [-d, h], E_x s^tau_x = sum_i c_i z_i^x
    for x >= 1, with the c_i that make it 1 at x = 1 - d..0 (Feller, Vol.
    II, Ch. XII).  It is 1 - t^2 sum_n P(tau_x > n) s^n, so V_j(x) is its
    t^(2j-1) coefficient negated."""
    d, h, M = -law.support[0], law.support[-1], 2 * J
    states = max(x_max, h) + d
    if states > LADDER_STATE_CAP:
        raise ResourceCapExceeded(f"ladder of {states} states exceeds cap {LADDER_STATE_CAP}")
    # sum_i c_i z_i^x solves the recurrence whose characteristic polynomial
    # is R, from its d values 1 at x = 1 - d..0
    q, inside, _ = oracle.ladder_roots(law)
    R, p = _side_factor(law, q, inside, M)
    E = np.zeros((states, M))
    E[:d, 0] = 1.0
    _recur(R[:0:-1], E, d)
    E = E[d - 1 :]  # x = 0..max(x_max, h)
    E[0] = (p[h - 1 :: -1, None] * E[1 : h + 1]).sum(0)  # E_0 = s (P(X <= 0) + sum_v p_v E_v)
    E[0, 0] += p[h:].sum()
    E[0, 2:] = E[0, 2:] - E[0, :-2]
    return 0.0 - E[: x_max + 1, 1::2].T  # no -0.0


def u_wiener_hopf(law: LatticeLaw, x_max: int, J: int, roots: tuple | None = None) -> np.ndarray:
    """U[j - 1, x] = U_j(x) for j = 1..J on x = 0..x_max, with no horizon.
    By time reversal, sum_n P(S_n = x, tau_0 > n) s^n is the mass at x of
    the strict ascending ladder renewal measure, [z^x] B(0) / B(z) with B
    the monic factor of the h large roots of z^d (1 - s phi(z)) (Feller,
    Vol. II, Ch. XII): B(z) / B(0) = z^h R~(1/z), R~ the reversed law's
    small-root factor.  With s = 1 - t^2, U_j(x) is its t^(2j-1) coefficient."""
    h, M = law.support[-1], 2 * J
    if h + x_max > LADDER_STATE_CAP:
        raise ResourceCapExceeded(f"ladder of {h + x_max} states exceeds cap {LADDER_STATE_CAP}")
    # the reversed law's Q is q reversed, exactly, and its inside factor is
    # the outside factor A reversed, made monic by |A(0)| > 1 (roots: `oracle.ladder_roots`)
    q, _, A = oracle.ladder_roots(law) if roots is None else roots
    R, _ = _side_factor(law.reverse(), q[::-1], A[::-1] / A[-1], M)
    # F_x = [z^x] B(0) / B(z): F_0 = 1, 0 below, sum_i r~_i F_(x-i) = 0 above
    F = np.zeros((h + x_max, M))  # x = 1 - h..x_max
    F[h - 1, 0] = 1.0
    _recur(R[:0:-1], F, h)
    return F[h - 1 :, 1::2].T


def route_gap(route: np.ndarray, reference: np.ndarray, x_max: int) -> float:
    """max_j sup_(x <= x_max) |F_j - F_j^ref| / sup |F_j^ref| over the rows
    j of two ladders of coefficient functions, F[j - 1, x]."""
    a, b = route[:, : x_max + 1], reference[:, : x_max + 1]
    return float((np.abs(a - b).max(1) / np.abs(b).max(1)).max())


def route_window(law: LatticeLaw, x_max: int, N: int) -> int:
    """The states x = 0..w on which a horizon-N paper route is judged,
    w = max(1, min(x_max, floor(2 sigma sqrt(N)))): past x ~ 2 sigma sqrt(N)
    the route drifts from the closed form."""
    return max(1, min(x_max, math.isqrt(math.floor(4 * law.variance * N))))


def v_leftcont(law: LatticeLaw, x_max: int, J: int) -> np.ndarray:
    """V[j - 1, x] on x = 0..x_max in closed form for left-continuous walks,
    a polynomial of degree 2j - 1:

        V_j(x) = (2 / (2j - 1)) * x * theta_(j-1)(-x).

    Derivation: P(tau_x > n) = x sum_(m>n) p_m(-x)/m with the kernel
    identity a_(m-1)^(i+1)/m = -(2/(2i+1)) a_m^(i+2), whose tail telescopes
    to (2/(2i+1)) a_n^(i+1)."""
    if not law.left_continuous:
        raise NotLeftContinuous("law has downward jumps larger than 1")
    thetas = edgeworth.theta_polys(law, 2 * J)
    xs = np.arange(x_max + 1, dtype=float)
    return np.array([(2.0 / (2 * j - 1)) * xs * np.polyval(thetas[j - 1][::-1], -xs)
                     for j in range(1, J + 1)])


def killed_step(law: LatticeLaw, f: np.ndarray) -> np.ndarray:
    """(P - I)f(x) = sum_(v != 0: x+v>0) P(X = v) f(x + v) - P(X != 0) f(x), killed
    at <= 0, on x = 1..len(f) - 1 - h (h the largest upward jump; entry 0 is 0), one
    slice-add per atom; P(X != 0) is exact, so a holding mass near 1 keeps the jumps."""
    f = np.asarray(f, dtype=float)
    out = np.zeros(f.size - max(law.support))
    for v, p in law.atoms.items():
        lo = max(1, 1 - v)  # x + v > 0
        if v and lo < out.size:  # else a long downward jump would wrap the slice of f
            out[lo:] += float(p) * f[lo + v : out.size + v]
    out[1:] -= float(1 - law.atoms.get(0, 0)) * f[1 : out.size]
    return out


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


def ladder_reach(law: LatticeLaw, x_max: int, J: int) -> int:
    """The top state of the ladder `certify` reads: x_max plus J * (largest
    upward jump), the states that J operator steps read, plus 2."""
    if x_max < 1:
        raise ValueError(f"x-max must be >= 1 for the polyharmonic checks, got {x_max}")
    return x_max + J * max(law.support) + 2


def certify(law: LatticeLaw, V: np.ndarray, x_max: int) -> tuple[PolyCheck, ...]:
    """The polyharmonic checks of a ladder V[j - 1, x] = V_j(x), j = 1..J, on
    the window x = 1..x_max, each relative to the window's sup of the V_j
    checked:

      polyharmonic V1           sup |(P - I)V_1| / sup |V_1|          <= CERTIFY_TOL
      polyharmonic V2 identity  sup |(P - I)V_2 - V_1| / sup |V_2|    <= CERTIFY_TOL
      polyharmonic V2 (P-I)^2   sup |(P - I)^2 V_2| / sup |V_2|       <= CERTIFY_TOL

    (the V_2 checks for J >= 2).  The steps read V up to x_max + min(J, 2) h,
    h the largest upward jump: `ladder_reach(law, x_max, J)` reaches it.
    """
    need = x_max + min(len(V), 2) * max(law.support)
    if V.shape[1] <= need:
        raise ValueError(f"certify needs V up to x = {need}, given {V.shape[1] - 1}")
    w = slice(1, x_max + 1)
    sups = np.abs(V[:, w]).max(1).tolist()
    d1 = float(np.abs(killed_step(law, V[0])[w]).max()) / sups[0]
    checks = [PolyCheck("polyharmonic V1", "harmonic_defect_V1", "relative defect", d1,
                        CERTIFY_TOL)]
    if len(V) >= 2:
        step_v2 = killed_step(law, V[1])  # (P - I)V_2, read by both V_2 checks
        resid = float(np.abs(step_v2[w] - V[0, w]).max()) / sups[1]
        d2 = float(np.abs(killed_step(law, step_v2)[w]).max()) / sups[1]
        checks += [
            PolyCheck("polyharmonic V2 identity", "v2_identity_residual", "relative residual",
                      resid, CERTIFY_TOL),
            PolyCheck("polyharmonic V2 (P-I)^2", "biharmonic_defect_V2_rel", "relative defect",
                      d2, CERTIFY_TOL),
        ]
    return tuple(checks)


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
