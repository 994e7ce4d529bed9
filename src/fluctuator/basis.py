"""Binomial basis sequences a_n^(j) and conversions between power ladders.

The sequences a_n^(j) = (-1)^n * C(j - 3/2, n) are the Taylor coefficients of
(1-s)^(j-3/2).  They form the natural basis for half-power asymptotic
expansions: a_n^(j) ~ const * n^(1/2-j), they satisfy the exact difference
law a_n^(j) - a_{n-1}^(j) = a_n^(j+1), and their tail sums telescope in
closed form.  Everything downstream (first-passage tails, local conditioned
probabilities) is expressed on this basis, and the paper route's truncated
remainder sums are closed on it (`tail_sums`).  Here they are evaluated in
float64 by one memoised cumprod (`a_float`): the closures fit on its columns
and take their telescoped endpoints a_N^(j) from the same sequence.  The
conversions of n^-(j-1/2) onto the basis are a literal table of fitted
floats.  The exact rationals and tail sums the tests check these evaluators
against, and the 40-digit fit the table reproduces, are test references
(tests/oracle_references.py).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

import numpy as np

__all__ = [
    "TailNotDecayed",
    "a_float",
    "weighted_tail_sum",
    "tail_sums",
    "power_to_shifted_basis",
]


class TailNotDecayed(RuntimeError):
    """A truncated series' summands do not decay fast enough to extrapolate."""


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


@lru_cache(maxsize=None)
def weighted_tail_sum(p: int, N: int, j: int) -> float:
    """sum_(k>N) k^p * a_k^(j), summed in closed form by telescoping.

    Requires j >= p + 2 so the sum converges (a_k^(j) ~ k^(1/2-j)).
    Writing a_k^(j) = a_k^(j-1) - a_{k-1}^(j-1) and summing by parts drops j
    by one and p to lower powers:

        T_p(N, j) = -(N+1)^p a_N^(j-1) - sum_(q<p) C(p, q) T_q(N, j-1).

    The endpoint a_N^(j-1) is read from `a_float`, the sequence the
    closures fit on.  Memoised: the recursion and repeated closures revisit
    the same keys.
    """
    if j < p + 2:
        raise ValueError(f"sum of k^{p} * a_k^({j}) beyond N diverges or is borderline")
    total = -float((N + 1) ** p) * float(a_float(j - 1, N)[N])
    for q in range(p):
        total -= math.comb(p, q) * weighted_tail_sum(q, N, j - 1)
    return total


def tail_sums(
    window: np.ndarray, lo: int, j0: int, powers: tuple[int, ...]
) -> tuple[dict[int, float], float]:
    """({p: sum_(n>N) n^p r_n}, slope) for the last terms window[i] =
    r_(lo+i) of a remainder, n = lo..N.

    Fits the window on {a_n^(j0), a_n^(j0+1), a_n^(j0+2)} by least squares
    and sums the fitted tails by telescoping (`weighted_tail_sum`); slope is
    the window's raw log-log decay exponent.  Fewer than 8 nonzero terms
    close to zero tails with slope inf.  Raises TailNotDecayed when the
    slope is below j0 - 0.8.
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


# gamma_j..gamma_m of n^-(j-1/2) = sum_k gamma_k a_(n-1)^(k) + O(n^-(m+1/2)),
# keyed (j, m): weighted least-squares fits in 40 digits on n = 512..4096
# (N_fit = 4096), rounded to float.  tests/oracle_references.py refits them
# and checks the table bit for bit, and each residual's decay exponent >= m + 1/4.
_CONVERSIONS = {
    (j, m): MappingProxyType(dict(enumerate(gammas, j)))
    for (j, m), gammas in {
        (1, 1): (1.7721849926273656,),
        (1, 2): (1.7724536542093803, 1.3274403999304671),
        (2, 2): (-3.542218468922374,),
        (1, 3): (1.7724538506513885, 1.3293367584322773, 1.1950749592894307),
        (2, 3): (-3.544903674183669, -4.418172680654635),
        (3, 3): (2.3590873817941076,),
        (1, 4): (1.77245385090505, 1.3293403793902778, 1.200080119633713, 1.1213674997100846),
        (2, 4): (-3.54490769356885, -4.431095407443904, -4.878622164623662),
        (3, 4): (2.3632611940124204, 4.115254897185083),
        (4, 4): (-0.9422949794264723,),
    }.items()
}


def power_to_shifted_basis(j: int, m: int, N_fit: int = 1 << 12) -> Mapping[int, float]:
    """Read-only {k: gamma_k}, k = j..m, with
    n^-(j-1/2) = sum gamma_k a_{n-1}^(k) + O(n^-(m+1/2)).

    Local-probability expansions index the basis at n-1.  The conversion
    depends on the basis alone, not on the walk: it is read from the
    table of fits at N_fit = 4096, which holds 1 <= j <= m <= 4 (theta
    polynomials to r = 7); the mapping is shared between callers.  Other
    pairs raise ValueError.
    """
    conv = _CONVERSIONS.get((j, m)) if N_fit == 1 << 12 else None
    if conv is None:
        raise ValueError(
            f"no conversion for j={j}, m={m}, N_fit={N_fit}: "
            "the table holds 1 <= j <= m <= 4 at N_fit=4096"
        )
    return conv
