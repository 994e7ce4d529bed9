"""Coefficient functions for the local probabilities of
the walk conditioned to stay positive,

    b_n(x) = P(S_n = x, tau_0 > n) ~ sum_j U_j(x) a_n^(j+1),

with U_j(x) = q_(2j-1)(x) read off the generating function
B(x, s) = sum_l q_l(x) (1-s)^(l/2).  The even-index scalars come from the
psi_j(x) family (truncated weighted sums of local DP data with fitted
a-basis tails), the ladder itself from the generating-function convolution recursion.

Weak killing (tau_0: death at states <= 0) and strict killing (tau-bar_0:
state 0 alive) are both provided; the strict family of the reversed walk is
what the tau_x assembly consumes.

Conventions:
  - strict q-bar_0 includes the n = 0 atom, q-bar_0(x) = sum_(n>=0) b-bar_n(x);
    the recursion then needs no standalone psi term (the atom generates it).
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
    "PsiX",
    "QLadder",
    "ConditionedWorkspace",
    "make_workspace",
    "psi_x",
    "q_ladder",
    "u_expansion_eval",
    "gf_fit_check",
]

DEFAULT_N = 1 << 13


@dataclass(frozen=True)
class PsiX:
    x: int
    values: dict[int, float]  # j -> psi_j(x), j = -1 .. j_max

    def __getitem__(self, j: int) -> float:
        return self.values[j]


@dataclass(frozen=True)
class QLadder:
    strict: bool
    x_max: int
    q: np.ndarray  # q[l, x], l = 0..L, x = 0..x_max (weak: x >= 1)
    V: np.ndarray  # renewal values V(x) (weak) or V-bar(x) (strict), x = 0..x_max+1

    def U(self, j: int) -> np.ndarray:
        """U_j(x) = q_(2j-1)(x)."""
        return self.q[2 * j - 1]


@dataclass
class ConditionedWorkspace:
    """Per-law DP aggregates shared by all x: local probabilities p_n(x),
    theta polynomials, and the killed tables, each swept on first use."""

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

    @cached_property
    def table_strict(self) -> np.ndarray:
        """b-bar[n, x] = P(S_n = x, tau-bar_0 > n)."""
        return oracle.conditioned_table(self.law, self.N, self.x_max, strict=True)


def make_workspace(
    law: LatticeLaw,
    x_max: int,
    N: int = DEFAULT_N,
    r: int = 6,
    traces: dict[int, np.ndarray] | None = None,
) -> ConditionedWorkspace:
    """Workspace of `law` on x = 0..x_max at horizon N.  `traces` (p_n(x)
    for n = 0..N and x = 0..x_max) replaces the free sweep when the caller
    already holds those columns."""
    law.require_expansion_ready()
    thetas = edgeworth.theta_polys(law, r)
    if traces is None:
        _, traces = oracle.delta_table(law, N, xs=range(x_max + 1))
    return ConditionedWorkspace(
        law=law,
        N=N,
        x_max=x_max,
        thetas=thetas,
        theta0=thetas[0].coefficients[0],
        traces=traces,
    )


def _tail_closed_sum(summand: np.ndarray, first_n: int) -> float:
    """Truncated sum plus fitted a-basis tail."""
    tail, _, _ = oracle.series_tail_sum(summand, first_n=first_n)
    return float(summand.sum()) + tail


def psi_x(ws: ConditionedWorkspace, x: int, j_max: int) -> PsiX:
    """psi_j(x) for j = -1..j_max: odd j = 2i-1 evaluate theta_i(x); even
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
            raise TailNotDecayed(
                f"psi_{j} needs theta_{i + 1}; rebuild workspace with larger r"
            )
        resid = p.copy()
        for k in range(i + 2):
            resid -= float(ws.thetas[k](x)) * basis.a_float(k + 1, N - 1)
        weight = np.ones(N)
        for d in range(i):
            weight *= n - 1 - d
        summand = weight * resid
        summand[: i] = 0.0  # terms n <= i vanish by the falling factorial
        total = _tail_closed_sum(summand, first_n=1)
        vals[j] = float((-1) ** i / math.factorial(i)) * total
    return PsiX(x=x, values=vals)


def _renewal_from_table(table: np.ndarray, strict: bool, x_max: int) -> np.ndarray:
    """V(x) for x = 0..x_max from a killed table: weak V(x) = 1 +
    sum_n P(S_n < x, tau > n); strict V-bar(x) = sum_(n>=0) P(S_n <= x,
    tau-bar > n).  Tails closed on the a-basis."""
    N = table.shape[0] - 1
    out = np.zeros(x_max + 1)
    for x in range(x_max + 1):
        hi = x + 1 if strict else x
        if hi == 0:
            out[x] = 1.0
            continue
        summand = table[1:, :hi].sum(axis=1)
        out[x] = 1.0 + _tail_closed_sum(summand, first_n=1)
    return out


def q_ladder(
    ws: ConditionedWorkspace, L: int, strict: bool = False
) -> QLadder:
    """q_0..q_L on x = 0..x_max.

    Weak: q_0(x) = V(x+1) - V(x); q_1(x) = -2 theta_0 V(x); for l >= 2
      -(l/2) q_l(x) = psi_(l-2)(x)
                      + sum_(y=1..x-1) sum_(j=-1..l-2) psi_j(y) q_(l-2-j)(x-y).
    Strict: q-bar_0(x) = sum_(n>=0) b-bar_n(x); q-bar_1 = -2 theta_0 V-bar;
      -(l/2) q-bar_l(x) = sum_(y=0..x) sum_j psi_j(y) q-bar_(l-2-j)(x-y)
    (the standalone psi term is the y = x pairing with the n = 0 atom).
    """
    x_max = ws.x_max
    psis = [psi_x(ws, x, max(L - 2, 0)) for x in range(x_max + 1)]
    q = np.zeros((L + 1, x_max + 1))
    if strict:
        # q-bar_0(x) = sum_(n>=0) P(S_n = x, tau-bar > n) is, by reading the
        # path backwards (iid increments, same law), the renewal mass of the
        # weak ascending ladder heights at x; the ladder route has no
        # x-dependent truncation bias, unlike column sums of the DP table.
        q[0] = oracle.ladder_renewal(ws.law, x_max, ws.N)
        V = np.cumsum(q[0])
        if L >= 1:
            q[1] = -2.0 * ws.theta0 * V
        for ell in range(2, L + 1):
            for x in range(x_max + 1):
                acc = 0.0
                for y in range(0, x + 1):
                    for j in range(-1, ell - 1):
                        acc += psis[y][j] * q[ell - 2 - j, x - y]
                q[ell, x] = -2.0 / ell * acc
        return QLadder(strict=True, x_max=x_max, q=q, V=V)

    # weak V needed up to x_max + 1 for the q_0 difference; V(x) reads
    # table columns < x, so the x_max-column table suffices
    V = _renewal_from_table(ws.table_weak, False, x_max + 1)
    for x in range(1, x_max + 1):
        q[0, x] = V[x + 1] - V[x]
    if L >= 1:
        q[1, 1:] = -2.0 * ws.theta0 * V[1 : x_max + 1]
    for ell in range(2, L + 1):
        for x in range(1, x_max + 1):
            acc = psis[x][ell - 2]
            for y in range(1, x):
                for j in range(-1, ell - 1):
                    acc += psis[y][j] * q[ell - 2 - j, x - y]
            q[ell, x] = -2.0 / ell * acc
    return QLadder(strict=False, x_max=x_max, q=q, V=V[: x_max + 1])


def u_expansion_eval(
    ws: ConditionedWorkspace, ladder: QLadder, x: int, n_grid, J: int
) -> dict:
    """Approximations sum_(j<=J) U_j(x) a_n^(j+1) against DP b_n(x)."""
    if 2 * J - 1 > ladder.q.shape[0] - 1:
        raise ValueError("ladder too short for requested J")
    n_grid = np.asarray(n_grid)
    N = int(n_grid.max())
    table = ws.table_strict if ladder.strict else ws.table_weak
    truth = table[n_grid, x]
    approx = np.zeros(n_grid.size)
    for j in range(1, J + 1):
        approx += ladder.q[2 * j - 1, x] * basis.a_float(j + 1, N)[n_grid]
    err = np.abs(truth - approx)
    nz = err > 0
    slope = float("nan")
    if nz.sum() >= 3:
        slope = float(-np.polyfit(np.log(n_grid[nz]), np.log(err[nz]), 1)[0])
    return {"truth": truth, "approx": approx, "error": err, "decay_exponent": slope}


def gf_fit_check(
    ws: ConditionedWorkspace,
    ladder: QLadder,
    x: int,
    s_grid: np.ndarray | None = None,
    ridge: float = 1e-10,
) -> np.ndarray:
    """Cross-check oracle: fit B(x, s) = sum_n b_n(x) s^n near s = 1 on the
    basis {1, (1-s)^(1/2), (1-s), (1-s)^(3/2)} and compare with the ladder's
    q_0..q_3(x).  Returns the fitted minus ladder values (length 4).

    Chebyshev-spaced grid on [0.9, 0.999]; ridge-regularized normal
    equations; for cross-checking only.
    """
    if s_grid is None:
        k = np.arange(24)
        s_grid = 0.9495 + 0.0495 * np.cos(np.pi * (k + 0.5) / 24)
    table = ws.table_strict if ladder.strict else ws.table_weak
    b = table[:, x]
    n = np.arange(b.size)
    gf = np.array([float(np.sum(b * s**n)) for s in s_grid])
    # close the GF truncation with the fitted leading tail coefficient
    u = 1.0 - s_grid
    X = np.stack([np.ones_like(u), u**0.5, u, u**1.5, u**2], axis=1)
    A = X.T @ X + ridge * np.eye(X.shape[1])
    coef = np.linalg.solve(A, X.T @ gf)
    # strict q_0(0) and b[0, 0] both carry the n = 0 atom
    lad = ladder.q[: min(4, ladder.q.shape[0]), x]
    return coef[: lad.size] - lad
