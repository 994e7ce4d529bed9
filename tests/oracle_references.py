"""Exact references that only the tests read: rational pmf tables and
survival frames, the rational single identity checks, the killed-walk
recurrence, the closed-form ladder heights, the Monte Carlo estimator of
P(tau_x > n), the reparametrized mu closed form, the exact a-basis
sequences and tail sums, and the 40-digit fits of the a-basis conversions
that `basis.power_to_shifted_basis` holds as a table.  Also the paper
routes at a horizon N, each from its own free sweep, the fitted decay
exponent of an error sequence, and the closed-form kernels as first
written (a Toeplitz matrix built per product, np.polydiv, Fraction sums),
which the rewritten ones match bit for bit, and the paper route's psi
closures and q recursion as first written (a tail fit per caller, four
nested loops), which the shared closure matches bit for bit and the
convolutions to 1e-13.

The checks reduce the exact frames of `oracle._sweep_exact` (`_reduce`)
and score them with the residual functions `identity_suite` runs
(`oracle._spitzer_gap`, `oracle._duality_gap`, `oracle._leftcont_gap`,
on the `oracle._PLAIN` ring), so each identity has one definition.  They
reach the oracle's helpers as module attributes, so a monkeypatch of
`oracle` reaches them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np
from mpmath import mp

from fluctuator import basis, edgeworth, oracle, polyharmonic, tau0
from fluctuator.walk import LatticeLaw


@dataclass(frozen=True)
class PmfFrame:
    n: int
    mass: dict[int, Fraction]

    def prob(self, x: int) -> Fraction:
        return self.mass.get(x, Fraction(0))


@dataclass(frozen=True)
class SurvivalFrame(PmfFrame):
    killed_to_date: Fraction


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    half_width: float

    def covers(self, truth: float, widths: float) -> bool:
        return abs(self.estimate - truth) <= widths * self.half_width


# ---------------------------------------------------------------------------
# reductions over the exact frames


def _mass(lo: int, vec: np.ndarray, den: int) -> dict[int, Fraction]:
    return {x: Fraction(int(m), den) for x, m in enumerate(vec, lo) if m}


def _reduce(law: LatticeLaw, N: int, read, start: int = 0, floor: int | None = None):
    """(values, dens): read(lo, alive) and den = D**n of every frame n = 0..N
    of an exact sweep, as object arrays of Python ints."""
    vals, dens = [], []
    for _, lo, alive, _, den in oracle._sweep_exact(law, N, start, floor):
        vals.append(read(lo, alive))
        dens.append(den)
    return np.array(vals, dtype=object), np.array(dens, dtype=object)


def _total(lo: int, vec: np.ndarray):
    return np.add.reduce(vec, 0)


def _points(xs, lo: int, vec: np.ndarray) -> list:
    """Masses of a frame vector at the states xs."""
    return [vec[x - lo] if 0 <= x - lo < vec.size else 0 for x in xs]


# ---------------------------------------------------------------------------
# exact tables


def pmf(law: LatticeLaw, n: int) -> PmfFrame:
    """Exact distribution of S_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for _, lo, alive, _, den in oracle._sweep_exact(law, n):
        pass
    return PmfFrame(n=n, mass=_mass(lo, alive, den))


def conditioned_pmf(
    law: LatticeLaw,
    n: int,
    strict: bool = False,
) -> list[SurvivalFrame]:
    """Exact survival frames for times 1..n.

    strict=False: b_n(x) = P(S_n = x, tau > n) with tau the first
    time the path enters (-inf, 0]; states x >= 1.
    strict=True: state 0 stays alive (killing only below 0); states x >= 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    frames = []
    killed = Fraction(0)
    sweep = oracle._sweep_exact(law, n, 0, 0 if strict else 1)
    for step, lo, alive, dead, den in sweep:
        if step:
            killed += Fraction(int(dead.sum()), den)
            frames.append(
                SurvivalFrame(n=step, mass=_mass(lo, alive, den), killed_to_date=killed)
            )
    return frames


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
# rational single identity checks


def spitzer_check(law: LatticeLaw, N: int) -> Fraction:
    """Exact max defect of Spitzer's factorization up to N (`_spitzer_gap`).
    The factorization is exact, so the defect is identically zero."""
    below, den = _reduce(law, N, oracle._upto_zero)
    T, _ = _reduce(law, N, _total, floor=1)
    return oracle._spitzer_gap(below, T, den, law.denominator, oracle._PLAIN)


def leftcont_check(law: LatticeLaw, x_max: int, N: int):
    """Exact max |P(tau_x = n) - (x/n) P(S_n = -x)| over 1<=x<=x_max, 1<=n<=N.

    Valid only for left-continuous walks (downward jumps of one).
    """
    if not law.left_continuous:
        raise oracle.NotLeftContinuous("law has downward jumps larger than 1")
    xs = range(1, x_max + 1)
    p, den = _reduce(law, N, partial(_points, [-x for x in xs]))
    D = law.denominator
    worst = Fraction(0)
    for x in xs:
        T, _ = _reduce(law, N, _total, x, 1)
        worst = max(worst, oracle._leftcont_gap(x, p[:, x - 1], T, den, D, oracle._PLAIN))
    return worst


def duality_check(law: LatticeLaw, x: int, N: int) -> Fraction:
    """Exact coefficient-wise defect of the first-passage duality
    factorization (`_duality_gap`), with Btilde built from the reversed walk
    under strict killing."""
    if x < 1:
        raise ValueError("x must be >= 1")
    F, _ = _reduce(law.reverse(), N, lambda lo, vec: vec[: max(x - lo, 0)].sum(), 0, 0)
    T0, _ = _reduce(law, N, _total, 0, 1)
    Tx, den = _reduce(law, N, _total, x, 1)
    return oracle._duality_gap(F, T0, Tx, den, oracle._PLAIN)


# ---------------------------------------------------------------------------
# ladder heights


def ladder_heights(law: LatticeLaw) -> np.ndarray:
    """Distribution of the first weak ascending ladder height, in closed form:
    F[k] = P(S_sigma = k), sigma = inf{n >= 1 : S_n >= 0}, k = 0..h, with

        1 - F(z) = -p_h (z - 1) A(z)

    with A the monic factor of the h - 1 roots outside of `ladder_roots`."""
    escape, F = oracle._ladder_escape(law)
    return np.concatenate(([1.0 - escape], F))


# ---------------------------------------------------------------------------
# Monte Carlo


_MC_BATCH = 1 << 14


def mc_tau_tail(
    sampler,
    x: float,
    n: int,
    paths: int,
    seed: int,
) -> McEstimate:
    """Unbiased MC estimate of P(tau_x > n) with a 95% Wilson interval.

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
    z = 1.96
    denom = 1.0 + z * z / paths
    center = (phat + z * z / (2 * paths)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / paths + z * z / (4 * paths * paths))
    return McEstimate(estimate=center, half_width=half)


# ---------------------------------------------------------------------------
# mu closed form


def reparametrized_scalars(psi: tau0.PsiScalars) -> tuple[float, float, float, float]:
    """(theta1, psi1', theta2', psi2') with the log(1 - theta1 u) part of the
    exponent absorbed:

        psi1' = psi1 - theta1^2/2,  theta2' = theta2 - theta1^3/3,
        psi2' = psi2 - theta1^4/4.

    In these variables the mu_k take the short closed forms of
    mu_closed_form; mu_coeffs on the raw scalars gives identical values.
    """
    t1 = psi.theta1
    return (
        t1,
        psi.psi1 - t1 ** 2 / 2,
        psi.theta2 - t1 ** 3 / 3,
        psi.psi2 - t1 ** 4 / 4,
    )


def mu_closed_form(
    theta1: float, psi1: float, theta2: float, psi2: float
) -> tuple[float, float, float, float, float]:
    """mu_0..mu_4 as explicit polynomials in the reparametrized scalars:

        mu_0 = 1,                   mu_1 = theta1,
        mu_2 = psi1 + theta1^2,     mu_3 = theta2 + psi1 theta1 + theta1^3,
        mu_4 = psi2 + psi1^2/2 + psi1 theta1^2 + theta2 theta1 + theta1^4.
    """
    return (
        1.0,
        theta1,
        psi1 + theta1 ** 2,
        theta2 + psi1 * theta1 + theta1 ** 3,
        psi2 + psi1 ** 2 / 2 + psi1 * theta1 ** 2 + theta2 * theta1 + theta1 ** 4,
    )


# ---------------------------------------------------------------------------
# exact a-basis


def a_seq(j: int, N: int) -> tuple[Fraction, ...]:
    """Exact rationals a_n^(j) for n = 0..N via the stable ratio recurrence.

    a_n = a_{n-1} * (n - j + 1/2) / n, a_0 = 1.
    """
    if j < 1:
        raise ValueError(f"family index must be >= 1, got {j}")
    if N < 0:
        raise ValueError(f"length must be >= 0, got {N}")
    vals = [Fraction(1)]
    for n in range(1, N + 1):
        vals.append(vals[-1] * Fraction(2 * (n - j) + 1, 2 * n))
    return tuple(vals)


def tail_sum(j: int, n: int) -> Fraction:
    """Exact tail sum_(k=n..inf) a_k^(j) = -a_{n-1}^(j-1).

    Telescopes through the difference law; diverges for j = 1, hence
    rejected.
    """
    if j < 2:
        raise ValueError("tail sum diverges for j < 2")
    if n < 1:
        raise ValueError("tail start must be >= 1")
    return -a_seq(j - 1, n - 1)[n - 1]


# ---------------------------------------------------------------------------
# the 40-digit a-basis conversion fits, whose floats `basis` holds as a table


class FitDiagnosticError(RuntimeError):
    """Raised when a basis-conversion fit fails its residual-decay check."""


def a_value_mp(j: int, n) -> mp.mpf:
    """a_n^(j) in mpmath working precision."""
    n = mp.mpf(n)
    return mp.gamma(n - j + mp.mpf(3) / 2) / (mp.gamma(n + 1) * mp.gamma(mp.mpf(3) / 2 - j))


def _geometric_grid(lo: int, hi: int, count: int) -> list[int]:
    pts = np.unique(np.round(np.geomspace(lo, hi, count)).astype(np.int64))
    return [int(p) for p in pts]


def _fit_on_basis(j: int, m: int, N_fit: int) -> tuple[dict[int, float], float]:
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


def fitted_conversion(j: int, m: int, N_fit: int = 1 << 12) -> tuple[dict[int, float], float]:
    """({k: gamma_k}, residual decay exponent) of the fit of n^-(j-1/2) on
    a_(n-1)^(j..m), refused with FitDiagnosticError when its residual decays
    slower than n^-(m+1/4)."""
    coeffs, slope = _fit_on_basis(j, m, N_fit)
    if slope < m + 0.25:
        raise FitDiagnosticError(
            f"residual decay exponent {slope:.3f} below requirement {m + 0.25}"
        )
    return coeffs, slope


# ---------------------------------------------------------------------------
# the paper routes at a horizon


def tau0_coeffs_at(law: LatticeLaw, N: int) -> tau0.Tau0Coefficients:
    """`tau0.tau0_coeffs` from a free sweep of N steps."""
    return tau0.tau0_coeffs(law, oracle.delta_table(law, N)[0])


def v_ladder_at(law: LatticeLaw, x_max: int, J: int, N: int) -> np.ndarray:
    """`polyharmonic.v_ladder` from one free sweep of N steps, read at
    -x_max..0 as `verify` reads it."""
    delta, points = oracle.delta_table(law, N, range(-x_max, 1))
    return polyharmonic.v_ladder(law, x_max, J, tau0.tau0_coeffs(law, delta), points)


def decay_exponent(ns: np.ndarray, err: np.ndarray) -> float:
    """-slope of the least-squares line through log |err| against log n over
    the nonzero errors; nan below three of them."""
    nz = err > 0
    if nz.sum() < 3:
        return float("nan")
    return float(-np.polyfit(np.log(ns[nz]), np.log(err[nz]), 1)[0])


# ---------------------------------------------------------------------------
# the closed-form kernels as first written


def toeplitz(b: np.ndarray) -> np.ndarray:
    """`polyharmonic._toeplitz` with the lag mask and index built per call."""
    M = b.shape[-1]
    lag = np.arange(M) - np.arange(M)[:, None]
    return np.where(lag >= 0, b[..., np.maximum(lag, 0)], 0.0)


def compose(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """`polyharmonic._compose` with one Toeplitz matrix of z per coefficient."""
    out = np.zeros_like(z)
    for ck in c:
        out = out @ toeplitz(z)
        out[0] += ck
    return out


def factor(g: np.ndarray, p: np.ndarray, a0: np.ndarray, M: int) -> np.ndarray:
    """`polyharmonic._factor` with b0 from np.polydiv and the solution cut by np.split."""
    d, n = len(a0), len(g)
    b0 = np.polydiv(g, a0)[0]
    S = np.zeros((n, n))
    for i in range(n - d + 1):
        S[i : i + d, i] = a0
    for k in range(d - 1):
        S[k + 1 : k + n - d + 2, n - d + 1 + k] = b0
    Sinv = np.linalg.lstsq(S, np.eye(n), rcond=None)[0]
    A, B = np.zeros((M, d)), np.zeros((M, n - d + 1))
    A[0], B[0] = a0, b0
    for k in range(1, M):
        rhs = p * (k == 2) - sum(np.convolve(A[i], B[k - i]) for i in range(1, k))
        B[k], A[k, 1:] = np.split(Sinv @ rhs, [n - d + 1])
    return A.T


def ladder_q(law: LatticeLaw) -> np.ndarray:
    """Q = z^d (1 - phi(z)) / (z - 1)^2 of `oracle.ladder_roots`, divided in
    Fractions and rounded a coefficient at a time."""
    d, h = -law.support[0], law.support[-1]
    c = [Fraction(0)] * (d + h + 1)
    c[h] += 1
    for v, p in law.atoms.items():
        c[h - v] -= p
    for _ in range(2):
        for i in range(1, len(c)):
            c[i] += c[i - 1]
        c.pop()
    return np.array([float(a) for a in c])


def theta_polys(law: LatticeLaw, r: int) -> list[tuple[float, ...]]:
    """`edgeworth.theta_polys` with every term of `edgeworth._theta_terms`
    summed in Fractions of the cumulants, c / L prod kappa^k / v^(j + s)."""
    J = r // 2
    kappas = law.cumulants(2 * J + 2)
    v = kappas[1]
    f = [[Fraction(0)] * (2 * j + 1) for j in range(J + 1)]
    for (j, p), (L, terms) in edgeworth._theta_terms(J).items():
        for c, ks, e in terms:
            c = Fraction(c, L)
            for order, km in ks:
                c *= kappas[order - 1] ** km
            f[j][p] += c / v ** (3 * j - p - e)  # j + s, e = nu - s, nu = 2j - p
    with mp.workdps(40):
        root = mp.sqrt(2 * mp.pi * v.numerator / v.denominator)
        thetas = [[mp.mpf(0)] * (2 * j + 1) for j in range(J + 1)]
        for i in range(J + 1):
            conv = basis.power_to_shifted_basis(i + 1, J + 1)
            row = [mp.mpf(c.numerator) / c.denominator / root for c in f[i]]
            for k, gamma in conv.items():
                for p, c in enumerate(row):
                    thetas[k - 1][p] += mp.mpf(gamma) * c
    return [tuple(float(c) for c in row) for row in thetas]


# ---------------------------------------------------------------------------
# the paper route's sums as first written: two tail closures and the
# four-loop q recursion, which `basis.tail_sums` and the convolutions of
# `conditioned.q_ladder` replaced


def closed_sum(col: np.ndarray) -> float:
    """sum_(n>=1) col[n - 1] with the a-basis tail closure on n > 3N/4."""
    lo = 1 + (3 * col.size) // 4
    tails, _ = basis.tail_sums(col[lo - 1 :], lo, 2, (0,))
    return float(col.sum()) + tails[0]


def series_tail_sum(summands: np.ndarray, first_n: int) -> tuple[float, float]:
    """Extrapolate sum_(n>N) s_n for a sequence decaying like the a-basis.

    summands[i] = s_(first_n + i).  Fits the last quarter of the data on
    {a_n^(2), a_n^(3), a_n^(4)} and closes the sum with exact basis tails.
    Returns (tail_value, fitted_decay_exponent).
    Raises TailNotDecayed when the raw log-log decay exponent is below 1.2.
    """
    basis_j, min_exponent = (2, 3, 4), 1.2
    N_last = first_n + summands.size - 1
    lo = first_n + (3 * summands.size) // 4
    ns = np.arange(lo, N_last + 1)
    window = summands[lo - first_n :]
    mask = window != 0.0
    if mask.sum() < 8:
        return 0.0, float("inf")  # effectively zero tail
    slope = -np.polyfit(np.log(ns[mask]), np.log(np.abs(window[mask])), 1)[0]
    if slope < min_exponent:
        raise basis.TailNotDecayed(f"summand decay exponent {slope:.3f} < {min_exponent}")
    cols = np.stack([basis.a_float(j, N_last)[lo:] for j in basis_j], axis=1)
    coef, *_ = np.linalg.lstsq(cols, window, rcond=None)
    tail = sum(c * basis.weighted_tail_sum(0, N_last, j) for c, j in zip(coef, basis_j))
    return float(tail), float(slope)


def psi_scalars(deltas: np.ndarray, thetas: tuple[float, float]) -> tau0.PsiScalars:
    """`tau0.psi_scalars` with its tail closure inline."""
    deltas = np.asarray(deltas, dtype=float)
    N = deltas.size - 1
    t1, t2_shift = thetas
    t2 = t2_shift - t1  # shifted -> unshifted basis

    n = np.arange(1, N + 1, dtype=float)
    r = deltas[1:] / n - t1 * basis.a_float(2, N)[1:] - t2 * basis.a_float(3, N)[1:]

    # decay diagnostic and tail fit on the last quartile
    lo = 1 + (3 * (N - 1)) // 4
    ns = np.arange(lo, N + 1, dtype=float)
    window = r[lo - 1 :]
    nz = np.abs(window) > 0
    if nz.sum() < 8:
        slope = float("inf")
        tails = {0: 0.0, 1: 0.0, 2: 0.0}
    else:
        slope = float(-np.polyfit(np.log(ns[nz]), np.log(np.abs(window[nz])), 1)[0])
        if slope < 3.2:
            raise basis.TailNotDecayed(f"remainder decay exponent {slope:.3f} < 3.2")
        js = (4, 5, 6)
        cols = np.stack([basis.a_float(j, N)[lo:] for j in js], axis=1)
        coef, *_ = np.linalg.lstsq(cols, window, rcond=None)
        tails = {
            p: float(sum(c * basis.weighted_tail_sum(p, N, j) for c, j in zip(coef, js)))
            for p in (0, 1, 2)
        }

    psi0 = float(r.sum()) + tails[0] - t1 - t2
    psi1 = -(float((n * r).sum()) + tails[1])
    psi2 = float((n * (n - 1) / 2 * r).sum()) + (tails[2] - tails[1]) / 2
    return tau0.PsiScalars(
        psi0=psi0, psi1=psi1, psi2=psi2, theta1=t1, theta2=t2,
        tail_decay_exponent=slope,
    )


def psi_x(thetas: list, x: int, p: np.ndarray, j_max: int) -> dict[int, float]:
    """`conditioned.psi_x` with each even psi_j closed by `series_tail_sum`."""
    N = p.size - 1
    p = p[1:]  # p_n(x), n = 1..N
    vals: dict[int, float] = {-1: thetas[0][0]}
    n = np.arange(1, N + 1, dtype=float)
    for j in range(0, j_max + 1):
        if j % 2:  # odd: theta polynomial
            i = (j + 1) // 2
            vals[j] = float(np.polyval(thetas[i][::-1], x))
            continue
        i = j // 2
        if i + 1 >= len(thetas):
            raise basis.TailNotDecayed(f"psi_{j} needs theta_{i + 1}, beyond the thetas given")
        resid = p.copy()
        for k in range(i + 2):
            resid -= float(np.polyval(thetas[k][::-1], x)) * basis.a_float(k + 1, N - 1)
        weight = np.ones(N)
        for d in range(i):
            weight *= n - 1 - d
        summand = weight * resid
        summand[: i] = 0.0  # terms n <= i vanish by the falling factorial
        tail, _ = series_tail_sum(summand, first_n=1)
        vals[j] = float((-1) ** i / math.factorial(i)) * (float(summand.sum()) + tail)
    return vals


def q_ladder_loops(q: np.ndarray, psis: dict, strict: bool) -> np.ndarray:
    """Rows l >= 2 of `conditioned.q_ladder` by the four nested loops over
    l, x, y and j, from its rows q_0, q_1 and psis[y] = {j: psi_j(y)}."""
    y0 = 0 if strict else 1
    q = q.copy()
    L, x_max = q.shape[0] - 1, q.shape[1] - 1
    for ell in range(2, L + 1):
        for x in range(y0, x_max + 1):
            acc = 0.0
            for y in range(y0, x + 1):
                for j in range(-1, ell - 1):
                    acc += psis[y][j] * q[ell - 2 - j, x - y]
            q[ell, x] = -2.0 / ell * acc
    return q
