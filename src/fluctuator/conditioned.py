"""Coefficient functions for the local probabilities of
the walk conditioned to stay positive,

    b_n(x) = P(S_n = x, tau_0 > n) ~ sum_j U_j(x) a_n^(j+1),

with U_j(x) = q_(2j-1)(x) read off the generating function
B(x, s) = sum_l q_l(x) (1-s)^(l/2).  The even-index scalars come from the
psi_j(x) family (truncated weighted sums of local DP data with fitted
a-basis tails), the ladder from the generating-function convolution
recursion, and q_0, V from the closed-form ladder renewal (no horizon).

One recursion serves both killings: weak (tau_0, death at states <= 0),
read by `expand local`, and strict (tau-bar_0, state 0 alive), whose
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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import basis, edgeworth, oracle
from .oracle import TailNotDecayed
from .walk import LatticeLaw

__all__ = [
    "QLadder",
    "ConditionedWorkspace",
    "make_workspace",
    "psi_x",
    "q_ladder",
    "u_expansion_eval",
    "gf_fit_check",
]


@dataclass(frozen=True)
class QLadder:
    q: np.ndarray  # q[l, x], l = 0..L, x = 0..x_max (weak: x >= 1, q_0(0) = 1 the n = 0 atom)
    V: np.ndarray  # renewal values V(x) (weak) or V-bar(x) (strict), x = 0..x_max

    def U(self, j: int) -> np.ndarray:
        """U_j(x) = q_(2j-1)(x)."""
        return self.q[2 * j - 1]


@dataclass
class ConditionedWorkspace:
    """Per-law DP aggregates shared by all x: local probabilities p_n(x),
    theta polynomials, and the weakly killed table, swept on first use."""

    law: LatticeLaw
    N: int
    x_max: int
    thetas: list
    theta0: float
    traces: dict[int, np.ndarray]  # p_n(x) for x = 0..x_max

    @cached_property
    def table_weak(self) -> np.ndarray:
        """b[n, x] = P(S_n = x, tau_0 > n)."""
        return oracle.conditioned_table(self.law, self.N, self.x_max, strict=False)


def make_workspace(
    law: LatticeLaw,
    x_max: int,
    N: int,
    traces: dict[int, np.ndarray] | None = None,
) -> ConditionedWorkspace:
    """Workspace of `law` on x = 0..x_max at horizon N.  `traces` (p_n(x)
    for n = 0..N and x = 0..x_max) replaces the free sweep when the caller
    already holds those columns."""
    law.require_expansion_ready()
    if traces is None:
        _, traces = oracle.delta_table(law, N, xs=range(x_max + 1))
    thetas = edgeworth.theta_polys(law, 6)  # theta_0..theta_3: psi_j up to j = 4
    return ConditionedWorkspace(
        law=law,
        N=N,
        x_max=x_max,
        thetas=thetas,
        theta0=thetas[0].coefficients[0],
        traces=traces,
    )


def psi_x(ws: ConditionedWorkspace, x: int, j_max: int) -> dict[int, float]:
    """{j: psi_j(x)} for j = -1..j_max: odd j = 2i-1 evaluate theta_i(x); even
    j = 2i sum the weighted local remainders

      psi_2i(x) = ((-1)^i / i!) sum_(n>=i+1) (n-1)!/(n-1-i)! *
                  (p_n(x) - sum_(k<=i+1) theta_k(x) a_(n-1)^(k+1)),

    where the extra k = i+1 subtraction is a legal acceleration (its
    weighted sum telescopes to zero) that speeds the tail decay.
    """
    N = ws.N
    p = ws.traces[x][1:]  # p_n(x), n = 1..N
    vals: dict[int, float] = {-1: float(ws.theta0)}
    n = np.arange(1, N + 1, dtype=float)
    for j in range(0, j_max + 1):
        if j % 2:  # odd: theta polynomial
            i = (j + 1) // 2
            vals[j] = float(ws.thetas[i](x))
            continue
        i = j // 2
        if i + 1 >= len(ws.thetas):
            raise TailNotDecayed(f"psi_{j} needs theta_{i + 1}, beyond the workspace's thetas")
        resid = p.copy()
        for k in range(i + 2):
            resid -= float(ws.thetas[k](x)) * basis.a_float(k + 1, N - 1)
        weight = np.ones(N)
        for d in range(i):
            weight *= n - 1 - d
        summand = weight * resid
        summand[: i] = 0.0  # terms n <= i vanish by the falling factorial
        tail, _, _ = oracle.series_tail_sum(summand, first_n=1)
        vals[j] = float((-1) ** i / math.factorial(i)) * (float(summand.sum()) + tail)
    return vals


def q_ladder(
    ws: ConditionedWorkspace, L: int, strict: bool = False
) -> QLadder:
    """q_0..q_L on x = 0..x_max, from

      -(l/2) q_l(x) = sum_(y=y0..x) sum_(j=-1..l-2) psi_j(y) q_(l-2-j)(x-y),  l >= 2,

    with q_1 = -2 theta_0 V.  Strict: y0 = 0 and q-bar_0(x) = sum_(n>=0)
    b-bar_n(x).  Weak: y0 = 1 and q_0(x) = V(x+1) - V(x) for x >= 1, with
    q_0(0) = 1 the n = 0 atom, so the y = x pairing is the standalone
    psi_(l-2)(x) term of the weak recursion.
    """
    x_max = ws.x_max
    y0 = 0 if strict else 1
    # psi_j is read only by the l >= 2 recursion
    psis = {y: psi_x(ws, y, L - 2) for y in range(y0, x_max + 1)} if L >= 2 else {}
    q = np.zeros((L + 1, x_max + 1))
    # u(y) = sum_(n>=0) P(S_n = y, tau-bar > n) is, by reading the path
    # backwards (iid increments, same law), the renewal mass of the weak
    # ascending ladder heights at y: exact, with no horizon truncation.  The
    # strict ladder is the weak one with its zero-height steps collapsed, so
    # its renewal mass is u / u(0); weak V(x) = 1 + sum_n P(0 < S_n < x,
    # tau > n) = sum_(y<x) u(y) / u(0) for x >= 1
    u = oracle.ladder_renewal(ws.law, x_max)
    q[0] = u if strict else u / u[0]
    V = np.cumsum(q[0])
    if not strict:
        V = np.concatenate(([1.0], V[:-1]))
    if L >= 1:
        q[1, y0:] = -2.0 * ws.theta0 * V[y0:]
    for ell in range(2, L + 1):
        for x in range(y0, x_max + 1):
            acc = 0.0
            for y in range(y0, x + 1):
                for j in range(-1, ell - 1):
                    acc += psis[y][j] * q[ell - 2 - j, x - y]
            q[ell, x] = -2.0 / ell * acc
    return QLadder(q=q, V=V)


def u_expansion_eval(
    ws: ConditionedWorkspace, ladder: QLadder, x: int, n_grid, J: int
) -> dict:
    """Approximations sum_(j<=J) U_j(x) a_n^(j+1) of the weak ladder against
    DP b_n(x)."""
    if 2 * J - 1 > ladder.q.shape[0] - 1:
        raise ValueError("ladder too short for requested J")
    n_grid = np.asarray(n_grid)
    N = int(n_grid.max())
    truth = ws.table_weak[n_grid, x]
    approx = np.zeros(n_grid.size)
    for j in range(1, J + 1):
        approx += ladder.q[2 * j - 1, x] * basis.a_float(j + 1, N)[n_grid]
    err = np.abs(truth - approx)
    nz = err > 0
    slope = float("nan")
    if nz.sum() >= 3:
        slope = float(-np.polyfit(np.log(n_grid[nz]), np.log(err[nz]), 1)[0])
    return {"truth": truth, "approx": approx, "error": err, "decay_exponent": slope}


def gf_fit_check(ws: ConditionedWorkspace, ladder: QLadder, x: int) -> np.ndarray:
    """Cross-check oracle: fit B(x, s) = sum_n b_n(x) s^n near s = 1 on the
    basis {1, (1-s)^(1/2), (1-s), (1-s)^(3/2)} and compare with the weak
    ladder's q_0..q_3(x), x >= 1.  Returns the fitted minus ladder values
    (length 4).

    Chebyshev-spaced grid on [0.9, 0.999]; ridge-regularized normal
    equations; for cross-checking only.
    """
    k = np.arange(24)
    s_grid = 0.9495 + 0.0495 * np.cos(np.pi * (k + 0.5) / 24)
    b = ws.table_weak[:, x]
    n = np.arange(b.size)
    gf = np.array([float(np.sum(b * s**n)) for s in s_grid])
    # close the GF truncation with the fitted leading tail coefficient
    u = 1.0 - s_grid
    X = np.stack([np.ones_like(u), u**0.5, u, u**1.5, u**2], axis=1)
    A = X.T @ X + 1e-10 * np.eye(X.shape[1])
    coef = np.linalg.solve(A, X.T @ gf)
    lad = ladder.q[: min(4, ladder.q.shape[0]), x]
    return coef[: lad.size] - lad
