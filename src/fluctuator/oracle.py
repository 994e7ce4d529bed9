"""Exact ground truth for the expansions: dynamic programming, identity
checkers, renewal sums and Monte Carlo spot checks.

Every DP table and identity check is a reduction over the frames of one
killed-walk propagator, `_sweep`.  Everything here is either exact
(rational mode), plain float arithmetic on exact recursions (float mode),
or an unbiased simulation with a confidence interval.  No asymptotics
enter: this module is what the expansion modules are tested against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import basis
from .walk import LatticeLaw, LawError

__all__ = [
    "ResourceCapExceeded",
    "TailNotDecayed",
    "NotLeftContinuous",
    "PmfFrame",
    "SurvivalFrame",
    "McEstimate",
    "pmf",
    "delta_table",
    "conditioned_pmf",
    "conditioned_table",
    "recurrence_gap",
    "tau_tail",
    "spitzer_check",
    "leftcont_check",
    "duality_check",
    "mc_tau_tail",
    "series_tail_sum",
]

DEFAULT_STATE_CAP = 200_000
# float cells one table may hold (128 MiB of float64)
TABLE_CELL_CAP = 1 << 24


class ResourceCapExceeded(RuntimeError):
    """DP state space grew past the configured cap."""


class TailNotDecayed(RuntimeError):
    """A truncated series' summands do not decay fast enough to extrapolate."""


class NotLeftContinuous(LawError):
    """Operation requires downward jumps of size at most one."""


@dataclass(frozen=True)
class PmfFrame:
    n: int
    mass: dict[int, Fraction]

    def prob(self, x: int) -> Fraction:
        return self.mass.get(x, Fraction(0))


@dataclass(frozen=True)
class SurvivalFrame:
    n: int
    mass: dict[int, Fraction]
    killed_to_date: Fraction

    def prob(self, x: int) -> Fraction:
        return self.mass.get(x, Fraction(0))


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    half_width: float
    paths: int

    def covers(self, truth: float, widths: float = 1.0) -> bool:
        return abs(self.estimate - truth) <= widths * self.half_width


# ---------------------------------------------------------------------------
# the killed-walk propagator


def _guard(width: int, cap: int) -> None:
    if width > cap:
        raise ResourceCapExceeded(f"state width {width} exceeds cap {cap}")


def _guard_table(rows: int, cols: int) -> None:
    """Refuse a float table before allocating it."""
    if rows * cols > TABLE_CELL_CAP:
        raise ResourceCapExceeded(
            f"table of {rows} x {cols} cells exceeds cap {TABLE_CELL_CAP}"
        )


def _unit(law: LatticeLaw, exact: bool) -> int:
    """D, the lcm of the atom denominators, in exact mode; 1 in float mode."""
    return math.lcm(*(p.denominator for p in law.atoms.values())) if exact else 1


def _sweep(
    law: LatticeLaw,
    N: int,
    start: int = 0,
    floor: int | None = None,
    exact: bool = False,
    state_cap: int = DEFAULT_STATE_CAP,
):
    """The walk start + S_n killed on first entry below `floor`, n = 0..N.

    Yields (n, lo, alive, dead, den): alive[i] / den is the mass at state
    lo + i that has stayed >= floor through time n; dead holds the mass
    killed at step n, on the states lo - dead.size .. lo - 1.  Frame 0 is the
    unkilled start.  floor=None runs the free walk.  Float mode uses float64
    arrays with den = 1; exact mode uses Python-int arrays scaled by
    den = D**n, D the lcm of the atom denominators.  The arrays are views
    of the propagator's state: read them, do not write them.
    """
    klo, khi = law.support[0], law.support[-1]
    _guard(khi - klo + 1, state_cap)
    D = _unit(law, exact)
    if exact:
        kern = np.zeros(khi - klo + 1, dtype=object)
        alive = np.array([1], dtype=object)
    else:
        kern = np.zeros(khi - klo + 1)
        alive = np.array([1.0])
    for v, p in law.atoms.items():
        kern[v - klo] = int(p * D) if exact else float(p)
    lo, den, dead = start, 1, alive[:0]
    yield 0, lo, alive, dead, den
    for n in range(1, N + 1):
        if alive.size:
            alive = np.convolve(alive, kern)
        lo += klo
        den *= D
        cut = 0 if floor is None else min(max(floor - lo, 0), alive.size)
        dead, alive = alive[:cut], alive[cut:]
        lo += cut
        _guard(alive.size, state_cap)
        yield n, lo, alive, dead, den


def _upto_zero(lo: int, vec: np.ndarray):
    """Mass of a frame vector on the states <= 0."""
    return vec[: max(1 - lo, 0)].sum()


def _mass(lo: int, vec: np.ndarray, den: int) -> dict[int, Fraction]:
    return {x: Fraction(int(m), den) for x, m in enumerate(vec, lo) if m}


def _reduce(law: LatticeLaw, N: int, read, start: int = 0, floor: int | None = None,
            exact: bool = True, state_cap: int = DEFAULT_STATE_CAP):
    """(values, dens): read(lo, alive) and den = D**n of every frame n = 0..N
    of a sweep, as object arrays of Python ints (exact) or float arrays."""
    vals, dens = [], []
    for _, lo, alive, _, den in _sweep(law, N, start, floor, exact, state_cap):
        vals.append(read(lo, alive))
        dens.append(den)
    dtype = object if exact else float
    return np.array(vals, dtype=dtype), np.array(dens, dtype=dtype)


def _total(lo: int, vec: np.ndarray):
    return vec.sum()


def _points(xs, lo: int, vec: np.ndarray) -> list:
    """Masses of a frame vector at the states xs."""
    return [vec[x - lo] if 0 <= x - lo < vec.size else 0 for x in xs]


def _gather(row: np.ndarray, x0: int, lo: int, vec: np.ndarray) -> None:
    """Copy the masses of a frame vector at the states x0 .. x0 + row.size - 1
    into row, one slice copy."""
    first, last = max(lo, x0), min(x0 + row.size, lo + vec.size)
    if last > first:
        row[first - x0 : last - x0] = vec[first - lo : last - lo]


def _worst(resid: np.ndarray, scale: np.ndarray):
    """max |resid / scale|: a Fraction for Python-int arrays, else a float."""
    if resid.dtype == object:
        return max((Fraction(abs(r), s) for r, s in zip(resid, scale)), default=Fraction(0))
    return float(np.max(np.abs(resid) / scale, initial=0.0))


# ---------------------------------------------------------------------------
# unconditioned walk


def pmf(law: LatticeLaw, n: int, state_cap: int = DEFAULT_STATE_CAP) -> PmfFrame:
    """Exact distribution of S_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for _, lo, alive, _, den in _sweep(law, n, exact=True, state_cap=state_cap):
        pass
    return PmfFrame(n=n, mass=_mass(lo, alive, den))


def delta_table(
    law: LatticeLaw,
    N: int,
    xs: Sequence[int] = (),
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Float-mode sweep of the free walk up to horizon N.

    Returns (delta, point_masses) where delta[n] = 1/2 - P(S_n <= 0) for
    n = 0..N (delta[0] = -1/2) and point_masses[x][n] = P(S_n = x) for each
    requested x.  The point masses are columns of one table spanning
    min(xs)..max(xs).
    """
    x0 = min(xs, default=0)
    span = max(xs, default=x0 - 1) - x0 + 1
    _guard_table(N + 1, span)
    delta = np.empty(N + 1)
    table = np.zeros((N + 1, span))
    for n, lo, vec, _, _ in _sweep(law, N, state_cap=state_cap):
        delta[n] = 0.5 - _upto_zero(lo, vec)
        _gather(table[n], x0, lo, vec)
    return delta, {x: table[:, x - x0] for x in xs}


# ---------------------------------------------------------------------------
# killed walk (weak and strict)


def conditioned_pmf(
    law: LatticeLaw,
    n: int,
    strict: bool = False,
    start: int = 0,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[SurvivalFrame]:
    """Exact survival frames for times 1..n.

    strict=False: b_n(x) = P(start + S_n = x, tau > n) with tau the first
    time the path enters (-inf, 0]; states x >= 1.
    strict=True: state 0 stays alive (killing only below 0); states x >= 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    frames = []
    killed = Fraction(0)
    sweep = _sweep(law, n, start, 0 if strict else 1, exact=True, state_cap=state_cap)
    for step, lo, alive, dead, den in sweep:
        if step:
            killed += Fraction(int(dead.sum()), den)
            frames.append(
                SurvivalFrame(n=step, mass=_mass(lo, alive, den), killed_to_date=killed)
            )
    return frames


def conditioned_table(
    law: LatticeLaw,
    N: int,
    x_max: int,
    strict: bool = False,
    start: int = 0,
    state_cap: int = DEFAULT_STATE_CAP,
) -> np.ndarray:
    """Float table b[n, x] = P(start + S_n = x, tau > n), n = 0..N, x = 0..x_max."""
    _guard_table(N + 1, x_max + 1)
    out = np.zeros((N + 1, x_max + 1))
    for n, lo, vec, _, _ in _sweep(law, N, start, 0 if strict else 1, state_cap=state_cap):
        _gather(out[n], 0, lo, vec)
    return out


def tau_tail(
    law: LatticeLaw,
    x: int,
    N: int,
    mode: str = "rational",
    state_cap: int = DEFAULT_STATE_CAP,
):
    """P(tau_x > n) for n = 0..N.

    Rational mode returns a list of exact Fractions; float mode a numpy
    array.  tau_x = inf{n >= 1: x + S_n <= 0} (weak killing).
    """
    if x < 0:
        raise ValueError("start must be >= 0")
    exact = mode != "float"
    T, den = _reduce(law, N, _total, x, 1, exact, state_cap)
    return [Fraction(t, d) for t, d in zip(T, den)] if exact else T


def recurrence_gap(
    law: LatticeLaw,
    n: int,
    x: int,
    strict: bool = False,
) -> Fraction:
    """Exact defect of the convolution recurrence for killed-walk masses.

    Weak:   n*b_n(x) - p_n(x) - sum_(k<n) sum_(0<y<x) p_k(y) b_(n-k)(x-y)
    Strict: same with the inner sum over 0 <= y <= x.
    The recurrence is an identity; a nonzero gap flags a DP bug.  Every
    term is an integer over the common denominator D**n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    read = partial(_points, range(x + 1))
    p, den = _reduce(law, n, read)
    b, _ = _reduce(law, n, read, 0, 0 if strict else 1)
    ys = range(0, x + 1) if strict else range(1, x)
    rhs = p[n, x] + sum(p[k, y] * b[n - k, x - y] for k in range(1, n) for y in ys)
    return Fraction(int(n * b[n, x] - rhs), int(den[n]))


# ---------------------------------------------------------------------------
# exact generating-function identities
#
# Each identity is a residual of integer sequences read off sweep frames:
# frame n is scaled by D**n, so products of frames i and n - i share the
# denominator D**n and a power-series product is one np.convolve.  Float
# mode runs the same code with D = 1.


def spitzer_check(law: LatticeLaw, N: int, mode: str = "rational"):
    """Max defect of Spitzer's factorization, as an error in P(tau_0 > n + 1).

    T(s) = sum P(tau_0 > n) s^n = (1-s)^(-1/2) exp(sum Delta_n s^n / n) is
    checked in its log-derivative form 2(1-s) T' = T (1 + 2(1-s) Q'), with
    Q' = sum Delta_n s^(n-1); it needs neither a series exp nor a division
    by n.  The factorization is exact, so the rational-mode defect is
    identically zero.
    """
    exact = mode != "float"
    below, den = _reduce(law, N, _upto_zero, exact=exact)
    T, _ = _reduce(law, N, _total, floor=1, exact=exact)
    D = _unit(law, exact)
    E = den - 2 * below  # 2 D**n Delta_n
    E[0] = 0
    G = E[1:] - D * E[:-1]  # [s^m] 2(1-s)Q', scaled by D**(m+1)
    n = np.arange(N)
    R = 2 * (n + 1) * T[1:] - (2 * n + 1) * D * T[:-1] - np.convolve(T, G)[:N]
    return _worst(R, 2 * (n + 1) * den[1:])


def leftcont_check(law: LatticeLaw, x_max: int, N: int):
    """Exact max |P(tau_x = n) - (x/n) P(S_n = -x)| over 1<=x<=x_max, 1<=n<=N.

    Valid only for left-continuous walks (downward jumps of one).
    """
    if not law.tag.left_continuous:
        raise NotLeftContinuous("law has downward jumps larger than 1")
    xs = range(1, x_max + 1)
    p, den = _reduce(law, N, partial(_points, [-x for x in xs]))
    D = _unit(law, True)
    n = np.arange(1, N + 1)
    worst = Fraction(0)
    for x in xs:
        T, _ = _reduce(law, N, _total, x, 1)
        R = n * (D * T[:-1] - T[1:]) - x * p[1:, x - 1]
        worst = max(worst, _worst(R, n * den[1:]))
    return worst


def duality_check(law: LatticeLaw, x: int, N: int, mode: str = "rational"):
    """Coefficient-wise defect of the first-passage duality factorization.

    sum_n P(tau_x > n) s^n = (1 + sum_(y=0..x-1) Btilde(s, y)) * sum_n P(tau_0 > n) s^n,
    with Btilde built from the reversed walk under strict killing.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    exact = mode != "float"
    F, _ = _reduce(law.reverse(), N, lambda lo, vec: vec[: max(x - lo, 0)].sum(), 0, 0, exact)
    T0, _ = _reduce(law, N, _total, 0, 1, exact)
    Tx, den = _reduce(law, N, _total, x, 1, exact)
    return _worst(np.convolve(F, T0)[: N + 1] - Tx, den)


# ---------------------------------------------------------------------------
# tail extrapolation


def series_tail_sum(
    summands: np.ndarray,
    first_n: int,
    basis_j: tuple[int, ...] = (2, 3, 4),
    min_exponent: float = 1.2,
) -> tuple[float, float, float]:
    """Extrapolate sum_(n>N) s_n for a sequence decaying like the a-basis.

    summands[i] = s_(first_n + i).  Fits the last quarter of the data on
    {a_n^(j)} columns and closes the sum with exact basis tails.  Returns
    (tail_value, tail_error_estimate, fitted_decay_exponent).  Raises
    TailNotDecayed when the raw log-log decay exponent is below
    min_exponent.
    """
    N_last = first_n + summands.size - 1
    lo = first_n + (3 * summands.size) // 4
    ns = np.arange(lo, N_last + 1)
    window = summands[lo - first_n :]
    mask = window != 0.0
    if mask.sum() >= 8:
        slope = -np.polyfit(np.log(ns[mask]), np.log(np.abs(window[mask])), 1)[0]
    else:
        # effectively zero tail
        return 0.0, float(np.abs(window).max(initial=0.0)), float("inf")
    if slope < min_exponent:
        raise TailNotDecayed(f"summand decay exponent {slope:.3f} < {min_exponent}")
    cols = np.stack([basis.a_float(j, N_last)[lo:] for j in basis_j], axis=1)
    coef, *_ = np.linalg.lstsq(cols, window, rcond=None)
    resid = window - cols @ coef
    tail = sum(c * basis.weighted_tail_sum(0, N_last, j) for c, j in zip(coef, basis_j))
    # Error: fit residual scale propagated over the tail length heuristically.
    resid_scale = float(np.abs(resid).max(initial=0.0))
    err = resid_scale * max(ns[-1], 1) / max(slope - 1.0, 0.2)
    return float(tail), err, float(slope)


# ---------------------------------------------------------------------------
# ladder-height structure


def ladder_heights(law: LatticeLaw) -> np.ndarray:
    """Distribution of the first weak ascending ladder height, in closed form.

    F[k] = P(S_sigma = k), sigma = inf{n >= 1 : S_n >= 0}, k = 0..h, where
    the law has jumps in [-d, h].  The Wiener-Hopf factorization at s = 1
    (Feller, Vol. II, Ch. XII) gives

        1 - F(z) = -p_h (z - 1) prod_(|r| > 1) (z - r)

    over the h - 1 roots of z^d (1 - phi(z)) outside the unit circle.  The
    double root at z = 1 of a mean-zero law is divided out in exact
    arithmetic first: in floats it splits and its halves get misclassified.
    Raises LawError when the float roots do not split that way.
    """
    law.require_expansion_ready()
    h = law.support[-1]
    # z^d (1 - phi(z)), highest power first: z^(v + d) sits at index h - v
    c = [Fraction(0)] * (h - law.support[0] + 1)
    c[h] += 1
    for v, p in law.atoms.items():
        c[h - v] -= p
    for _ in range(2):  # synthetic division by z - 1; the remainder is 0
        for i in range(1, len(c)):
            c[i] += c[i - 1]
        c.pop()
    roots = np.roots([float(a) for a in c])
    outside = roots[np.abs(roots) > 1.0]
    if outside.size != h - 1:
        raise LawError(
            f"{outside.size} roots of z^d (1 - phi(z)) outside the unit circle, "
            f"expected {h - 1}"
        )
    # expand F from its values at M > h roots of unity: np.poly's partial
    # products grow like binomials and cancel (sum F ~ 1e87 at width 3125)
    M = 1 << h.bit_length()
    z = np.exp(2j * np.pi * np.arange(M) / M)
    Fz = float(law.atoms[h]) * (z - 1.0)
    for r in outside:
        Fz *= z - r
    return np.fft.fft(1.0 + Fz)[: h + 1].real / M


def ladder_renewal(law: LatticeLaw, y_max: int) -> np.ndarray:
    """Renewal mass u(y) = sum_j P(j-th weak ascending ladder point = y),
    y = 0..y_max, from the exact renewal recursion over the (bounded)
    ladder height distribution.

    By time reversal, u equals the Green function of the walk killed
    strictly below zero: u(y) = sum_(n>=0) P(S_n = y, tau-bar > n).
    """
    F = ladder_heights(law)
    u = np.zeros(y_max + 1)
    u[0] = 1.0 / (1.0 - F[0])
    for y in range(1, y_max + 1):
        k = np.arange(1, min(y, F.size - 1) + 1)
        u[y] = F[k] @ u[y - k] / (1.0 - F[0])
    return u


# ---------------------------------------------------------------------------
# Monte Carlo


_MC_BATCH = 1 << 14


def mc_tau_tail(
    sampler,
    x: float,
    n: int,
    paths: int,
    seed: int,
    z: float = 1.96,
) -> McEstimate:
    """Unbiased MC estimate of P(tau_x > n) with a Wilson interval.

    sampler(rng, size) must return `size` iid increments.  Streams are
    Philox counter-based and split per fixed-size batch, so the result is
    reproducible for a given seed regardless of how work is scheduled.
    """
    if paths < 10_000:
        raise ValueError("need at least 1e4 paths for a meaningful interval")
    survived = 0
    done = 0
    batch_idx = 0
    base = np.random.Philox(key=seed)
    while done < paths:
        b = min(_MC_BATCH, paths - done)
        rng = np.random.Generator(base.jumped(batch_idx))
        pos = np.full(b, float(x))
        alive = np.ones(b, dtype=bool)
        for _ in range(n):
            if not alive.any():
                break
            steps = sampler(rng, int(alive.sum()))
            pos[alive] += steps
            alive[alive] = pos[alive] > 0.0
        survived += int(alive.sum())
        done += b
        batch_idx += 1
    phat = survived / paths
    denom = 1.0 + z * z / paths
    center = (phat + z * z / (2 * paths)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / paths + z * z / (4 * paths * paths))
    return McEstimate(estimate=center, half_width=half, paths=paths)
