"""Binomial basis sequences a_n^(j) and conversions between power ladders.

The sequences a_n^(j) = (-1)^n * C(j - 3/2, n) are the Taylor coefficients of
(1-s)^(j-3/2).  They form the natural basis for half-power asymptotic
expansions: a_n^(j) ~ const * n^(1/2-j), they satisfy the exact difference
law a_n^(j) - a_{n-1}^(j) = a_n^(j+1), and their tail sums telescope in
closed form.  Everything downstream (first-passage tails, local conditioned
probabilities) is expressed on this basis, and the paper route's truncated
remainder sums are closed on it (`tail_sums`).  Here they are evaluated in
float64 and in mpmath; the exact rationals and tail sums the tests check
these evaluators against are test references (tests/oracle_references.py).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import mpmath as mp
import numpy as np

__all__ = [
    "BasisConversion",
    "FitDiagnosticError",
    "TailNotDecayed",
    "a_float",
    "a_value",
    "a_value_mp",
    "weighted_tail_sum",
    "tail_sums",
    "power_to_shifted_basis",
]


class FitDiagnosticError(RuntimeError):
    """Raised when a basis-conversion fit fails its residual-decay check."""


class TailNotDecayed(RuntimeError):
    """A truncated series' summands do not decay fast enough to extrapolate."""


@dataclass(frozen=True)
class BasisConversion:
    """Coefficients expressing n^-(j-1/2) on the shifted a-basis a_{n-1}^(k).

    coefficients[k] multiplies a_{n-1}^(k); the expansion is valid up to a
    residual of order n^-(m+1/2) where m = max(coefficients).  The mapping
    is read-only because conversions are shared across callers.
    """

    coefficients: Mapping[int, float]
    residual_decay_exponent: float


@lru_cache(maxsize=64)
def a_float(j: int, N: int) -> np.ndarray:
    """a_n^(j), n = 0..N, in float64 via the ratio recurrence
    a_n = a_{n-1} * (n - j + 1/2) / n, a_0 = 1.

    The ratios (n - j + 1/2)/n are close to 1, so the recurrence is
    numerically stable for the moderate j used here.  Memoised: the array
    is shared between callers and read-only.
    """
    if j < 1:
        raise ValueError(f"family index must be >= 1, got {j}")
    out = np.empty(N + 1)
    out[0] = 1.0
    n = np.arange(1, N + 1)
    np.cumprod((n - j + 0.5) / n, out=out[1:])
    out.setflags(write=False)
    return out


def a_value(j: int, n: int) -> float:
    """Single a_n^(j) for possibly huge n, a_value_mp rounded from 30 digits
    (a float log-gamma difference would cancel to ~1e-11 relative)."""
    with mp.workdps(30):
        return float(a_value_mp(j, n))


def a_value_mp(j: int, n) -> mp.mpf:
    """a_n^(j) in mpmath working precision for fit grids."""
    n = mp.mpf(n)
    return mp.gamma(n - j + mp.mpf(3) / 2) / (mp.gamma(n + 1) * mp.gamma(mp.mpf(3) / 2 - j))


@lru_cache(maxsize=None)
def weighted_tail_sum(p: int, N: int, j: int) -> float:
    """sum_(k>N) k^p * a_k^(j), evaluated exactly by telescoping.

    Requires j >= p + 2 so the sum converges (a_k^(j) ~ k^(1/2-j)).
    Writing a_k^(j) = a_k^(j-1) - a_{k-1}^(j-1) and summing by parts drops j
    by one and p to lower powers:

        T_p(N, j) = -(N+1)^p a_N^(j-1) - sum_(q<p) C(p, q) T_q(N, j-1).

    Memoised: the recursion and repeated closures revisit the same keys.
    """
    if j < p + 2:
        raise ValueError(f"sum of k^{p} * a_k^({j}) beyond N diverges or is borderline")
    if p == 0:
        return -a_value(j - 1, N)
    total = -float((N + 1) ** p) * a_value(j - 1, N)
    for q in range(p):
        total -= math.comb(p, q) * weighted_tail_sum(q, N, j - 1)
    return total


def tail_sums(
    window: np.ndarray, lo: int, j0: int, powers: tuple[int, ...]
) -> tuple[dict[int, float], float]:
    """({p: sum_(n>N) n^p r_n}, slope) for the last terms window[i] =
    r_(lo+i) of a remainder, n = lo..N.

    Fits the window on {a_n^(j0), a_n^(j0+1), a_n^(j0+2)} by least squares
    and sums the fitted tails exactly (`weighted_tail_sum`); slope is the
    window's raw log-log decay exponent.  Fewer than 8 nonzero terms close
    to zero tails with slope inf.  Raises TailNotDecayed when the slope is
    below j0 - 0.8.
    """
    N = lo + window.size - 1
    nz = window != 0.0
    if nz.sum() < 8:
        return dict.fromkeys(powers, 0.0), float("inf")
    ns = np.arange(lo, N + 1, dtype=float)
    slope = float(-np.polyfit(np.log(ns[nz]), np.log(np.abs(window[nz])), 1)[0])
    if slope < j0 - 0.8:
        raise TailNotDecayed(f"remainder decay exponent {slope:.3f} < {j0 - 0.8:g}")
    js = range(j0, j0 + 3)
    cols = np.stack([a_float(j, N)[lo:] for j in js], axis=1)
    coef, *_ = np.linalg.lstsq(cols, window, rcond=None)
    tails = {p: float(sum(c * weighted_tail_sum(p, N, j) for c, j in zip(coef, js)))
             for p in powers}
    return tails, slope


def _geometric_grid(lo: int, hi: int, count: int) -> list[int]:
    pts = np.unique(np.round(np.geomspace(lo, hi, count)).astype(np.int64))
    return [int(p) for p in pts]


def _fit_on_basis(
    j: int,
    m: int,
    N_fit: int,
) -> tuple[dict[int, float], float]:
    """Weighted least squares of n^-(j-1/2) against shifted a-basis columns.

    Rows are weighted by n^(m+1/2) so each contributes at the scale of the
    expected residual; solved by QR in extended precision.
    """
    n_cols = m - j + 1
    grid = _geometric_grid(max(8, N_fit // 8), N_fit, max(12, 4 * n_cols + 8))
    with mp.workdps(40):
        A = mp.matrix(len(grid), n_cols)
        b = mp.matrix(len(grid), 1)
        for row, n in enumerate(grid):
            w = mp.mpf(n) ** (m + mp.mpf(1) / 2)
            for col, k in enumerate(range(j, m + 1)):
                A[row, col] = a_value_mp(k, n - 1) * w
            b[row] = mp.mpf(n) ** (-(j - mp.mpf(1) / 2)) * w
        sol, _ = mp.qr_solve(A, b)
        coeffs = {k: float(sol[i]) for i, k in enumerate(range(j, m + 1))}

        # Residual decay diagnostic across a wider window than the fit grid.
        diag = _geometric_grid(max(8, N_fit // 64), N_fit, 24)
        logs_n, logs_r = [], []
        for n in diag:
            approx = mp.fsum(
                mp.mpf(coeffs[k]) * a_value_mp(k, n - 1) for k in range(j, m + 1)
            )
            resid = abs(mp.mpf(n) ** (-(j - mp.mpf(1) / 2)) - approx)
            if resid > 0:
                logs_n.append(math.log(n))
                logs_r.append(float(mp.log(resid)))
    if len(logs_r) < 4:
        # Residuals at rounding level everywhere: decay is beyond measurable.
        return coeffs, float("inf")
    slope = -np.polyfit(logs_n, logs_r, 1)[0]
    return coeffs, float(slope)


@lru_cache(maxsize=None)
def power_to_shifted_basis(j: int, m: int, N_fit: int = 1 << 12) -> BasisConversion:
    """Coefficients gamma_k, k = j..m, with
    n^-(j-1/2) = sum gamma_k a_{n-1}^(k) + O(n^-(m+1/2)).

    Local-probability expansions index the basis at n-1.  The conversion
    depends on the basis alone, not on the walk, so each (j, m, N_fit) is
    fitted once per process and the same object is returned afterwards.
    """
    if not (m >= j >= 1):
        raise ValueError(f"need m >= j >= 1, got j={j}, m={m}")
    coeffs, slope = _fit_on_basis(j, m, N_fit)
    if slope < m + 0.25:
        raise FitDiagnosticError(
            f"residual decay exponent {slope:.3f} below requirement {m + 0.25}"
        )
    return BasisConversion(
        coefficients=MappingProxyType(coeffs), residual_decay_exponent=slope
    )
