"""Coefficient functions for the local probabilities of
the walk conditioned to stay positive,

    b_n(x) = P(S_n = x, tau_0 > n) ~ sum_j U_j(x) a_n^(j+1),

with U_j(x) = q_(2j-1)(x) read off the generating function
B(x, s) = sum_l q_l(x) (1-s)^(l/2).  This is the paper's route, the
cross-check of the closed form `polyharmonic.u_wiener_hopf`.  The even-index
scalars come from the psi_j(x) family (truncated weighted sums of local DP
data with fitted a-basis tails), the ladder from the generating-function
convolution recursion, and q_0, V from the closed-form ladder renewal (no
horizon).  Nothing here sweeps: the local probabilities p_n(x) are the
point masses of a free sweep (`oracle.delta_table`) the caller hands down,
and their length fixes the horizon.

One recursion serves both killings: weak (tau_0, death at states <= 0),
read by `verify`, and strict (tau-bar_0, state 0 alive), whose
reversed-walk family the tau_x assembly consumes.

Conventions:
  - q_0 includes the n = 0 atom: strict q-bar_0(x) = sum_(n>=0) b-bar_n(x),
    weak q_0(0) = 1; the recursion then needs no standalone psi term (the
    atom generates it).
  - q_1(x) = -2 theta_0 V(x) with theta_0 = 1/(sigma sqrt(2)); the often-quoted
    -sqrt(2/pi) V(x) corresponds to a unit-variance normalization.  The DP
    ratio b_n(x)/a_n^(2) is the arbiter.
"""

from __future__ import annotations

import math

import numpy as np

from . import basis, edgeworth, oracle
from .basis import TailNotDecayed
from .walk import LatticeLaw

__all__ = [
    "psi_x",
    "q_ladder",
    "weak_renewal",
    "u_expansion_eval",
]


def psi_x(thetas: list, x: int, p: np.ndarray, j_max: int) -> dict[int, float]:
    """{j: psi_j(x)} for j = -1..j_max, from the theta polynomials of
    `edgeworth.theta_polys` and p[n] = p_n(x), n = 0..N: odd j = 2i-1
    evaluate theta_i(x); even j = 2i sum the weighted local remainders

      psi_2i(x) = ((-1)^i / i!) sum_(n>=i+1) (n-1)!/(n-1-i)! *
                  (p_n(x) - sum_(k<=i+1) theta_k(x) a_(n-1)^(k+1)),

    where the extra k = i+1 subtraction is a legal acceleration (its
    weighted sum telescopes to zero) that speeds the tail decay.  Each sum
    is closed beyond N by `basis.tail_sums` on its terms n > 3N/4 (the fit
    on {a^(2), a^(3), a^(4)}), and raises TailNotDecayed when they decay
    slower than n^(-1.2).
    """
    N = p.size - 1
    p = p[1:]  # p_n(x), n = 1..N
    lo = 1 + (3 * N) // 4  # the tail fit's first n
    vals: dict[int, float] = {-1: thetas[0].coefficients[0]}
    n = np.arange(1, N + 1, dtype=float)
    for j in range(0, j_max + 1):
        if j % 2:  # odd: theta polynomial
            i = (j + 1) // 2
            vals[j] = float(thetas[i](x))
            continue
        i = j // 2
        if i + 1 >= len(thetas):
            raise TailNotDecayed(f"psi_{j} needs theta_{i + 1}, beyond the thetas given")
        resid = p.copy()
        for k in range(i + 2):
            resid -= float(thetas[k](x)) * basis.a_float(k + 1, N - 1)
        weight = np.ones(N)
        for d in range(i):
            weight *= n - 1 - d
        summand = weight * resid
        summand[: i] = 0.0  # terms n <= i vanish by the falling factorial
        tails, _ = basis.tail_sums(summand[lo - 1 :], lo, 2, (0,))
        vals[j] = float((-1) ** i / math.factorial(i)) * (float(summand.sum()) + tails[0])
    return vals


def q_ladder(
    law: LatticeLaw, traces: dict[int, np.ndarray], x_max: int, L: int, strict: bool = False
) -> np.ndarray:
    """q[l, x] = q_l(x), l = 0..L, x = 0..x_max (weak: x >= 1, with q_0(0) = 1
    the n = 0 atom), from the local probabilities traces[y][n] = p_n(y),
    n = 0..N, at y = 0..x_max and

      -(l/2) q_l(x) = sum_(y=y0..x) sum_(j=-1..l-2) psi_j(y) q_(l-2-j)(x-y),  l >= 2,

    with q_1 = -2 theta_0 V.  Strict: y0 = 0 and q-bar_0(x) = sum_(n>=0)
    b-bar_n(x).  Weak: y0 = 1 and q_0(x) = V(x+1) - V(x) for x >= 1, with
    q_0(0) = 1 the n = 0 atom, so the y = x pairing is the standalone
    psi_(l-2)(x) term of the weak recursion.  The sum over y is a
    truncated series convolution: row l sums one `np.convolve` of
    psi_j(0..x_max) with q_(l-2-j) per j, psi_j(0) = 0 when weak, and
    keeps its terms y0..x_max.
    """
    y0 = 0 if strict else 1
    thetas = edgeworth.theta_polys(law, 6)  # theta_0..theta_3: psi_j up to j = 4
    # psi[j + 1, y] = psi_j(y), read only by the l >= 2 recursion
    psi = np.zeros((L, x_max + 1))
    if L >= 2:
        for y in range(y0, x_max + 1):
            vals = psi_x(thetas, y, traces[y], L - 2)
            psi[:, y] = [vals[j] for j in range(-1, L - 1)]
    q = np.zeros((L + 1, x_max + 1))
    # u(y) = sum_(n>=0) P(S_n = y, tau-bar > n) is, by reading the path
    # backwards (iid increments, same law), the renewal mass of the weak
    # ascending ladder heights at y: exact, with no horizon truncation.  The
    # strict ladder is the weak one with its zero-height steps collapsed, so
    # its renewal mass is u / u(0)
    u = oracle.ladder_renewal(law, x_max)
    q[0] = u if strict else u / u[0]
    V = np.cumsum(u) if strict else weak_renewal(u)
    if L >= 1:
        q[1, y0:] = -2.0 * thetas[0].coefficients[0] * V[y0:]
    for ell in range(2, L + 1):  # weak: psi[:, 0] = 0 starts the sums at y = 1
        acc = sum(np.convolve(psi[j + 1], q[ell - 2 - j])[: x_max + 1] for j in range(-1, ell - 1))
        q[ell, y0:] = -2.0 / ell * acc[y0:]
    return q


def weak_renewal(u: np.ndarray) -> np.ndarray:
    """Weak V(x) = 1 + sum_n P(0 < S_n < x, tau > n) = sum_(y<x) u(y) / u(0)
    for x >= 1 and V(0) = 1, from the renewal mass u of
    `oracle.ladder_renewal`, on the same states."""
    return np.concatenate(([1.0], np.cumsum(u / u[0])[:-1]))


def u_expansion_eval(table: np.ndarray, U: np.ndarray, x: int, n_grid, J: int) -> dict:
    """Approximations sum_(j<=J) U_j(x) a_n^(j+1), U_j = U[j - 1], against
    the DP b_n(x) = table[n, x] of `oracle.conditioned_table` (weak)."""
    if J > len(U):
        raise ValueError("U too short for requested J")
    n_grid = np.asarray(n_grid)
    N = int(n_grid.max())
    truth = table[n_grid, x]
    approx = np.zeros(n_grid.size)
    for j in range(1, J + 1):
        approx += U[j - 1, x] * basis.a_float(j + 1, N)[n_grid]
    return {"truth": truth, "approx": approx, "error": np.abs(truth - approx)}
