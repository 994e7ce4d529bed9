"""Exact ground truth for the expansions: dynamic programming, identity
checkers, renewal sums and Monte Carlo spot checks.

Every DP table and identity check is a reduction over the frames of one
killed-walk propagator, `_sweep`.  Everything here is either exact
(rational mode, or int64 residues modulo primes), plain float arithmetic
on exact recursions (float mode), or an unbiased simulation with a
confidence interval.  No asymptotics enter: this module is what the
expansion modules are tested against.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import basis
from .walk import LatticeLaw, LawError, law_to_json

__all__ = [
    "ResourceCapExceeded",
    "TailNotDecayed",
    "NotLeftContinuous",
    "PmfFrame",
    "SurvivalFrame",
    "McEstimate",
    "IdentitySuite",
    "pmf",
    "delta_table",
    "conditioned_pmf",
    "conditioned_table",
    "recurrence_gap",
    "tau_tail",
    "spitzer_check",
    "leftcont_check",
    "duality_check",
    "identity_suite",
    "mc_tau_tail",
    "series_tail_sum",
    "ladder_heights",
    "ladder_renewal",
]

# DP states one sweep frame may hold
STATE_CAP = 200_000
# float cells one table may hold (128 MiB of float64)
TABLE_CELL_CAP = 1 << 24
# polynomial degree ladder_heights may hand to np.roots (cubic in the degree)
ROOT_DEGREE_CAP = 1024
# identity_suite's exact checks run modulo this many primes from (2^23, 2^24)
RESIDUE_PRIMES = 3
# live-window floor of the float sweeps: they skip the states below it
_TINY = 2.0**-120
_I64 = (1 << 63) - 1
_Q_LO = 1 << 23  # residue primes lie above this
_ODDS = np.arange(3, 4096, 2)  # trial divisors of a residue prime < 2^24


class ResourceCapExceeded(RuntimeError):
    """A DP frame would grow past STATE_CAP, a table past TABLE_CELL_CAP, or a
    root finding past ROOT_DEGREE_CAP."""


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
class SurvivalFrame(PmfFrame):
    killed_to_date: Fraction


@dataclass(frozen=True)
class IdentitySuite:
    """The identity residuals of one law up to N, each walk swept once.

    An exact check is True when its residual is nonzero modulo one of
    `primes`, which proves the identity fails, and False when the residual
    vanishes modulo all of them.
    """

    primes: tuple[int, ...]
    pool: int  # P: at least this many primes could have been drawn
    bits: int  # B: every exact residual entry is below 2^B in absolute value
    spitzer: bool
    spitzer_float: float
    duality: tuple[bool, ...]  # x = 1, 2, 3
    leftcont: bool | None  # None unless the law is left-continuous
    delta: np.ndarray  # float Delta_n = 1/2 - P(S_n <= 0), n = 0..N
    tau0_tail: np.ndarray  # float P(tau_0 > n), n = 0..N
    points: dict[int, np.ndarray]  # float P(S_n = x), n = 0..N, at the requested x

    @property
    def false_pass(self) -> float:
        """(floor(B/23) / P)^k.  A nonzero integer below 2^B has at most
        floor(B/23) prime factors above 2^23, so k distinct primes drawn
        uniformly from P candidates all divide it with at most this
        probability: the chance that a failing exact check passes."""
        return (self.bits // 23 / self.pool) ** len(self.primes)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    half_width: float

    def covers(self, truth: float, widths: float) -> bool:
        return abs(self.estimate - truth) <= widths * self.half_width


# ---------------------------------------------------------------------------
# the killed-walk propagator


def _guard(width: int) -> None:
    if width > STATE_CAP:
        raise ResourceCapExceeded(f"state width {width} exceeds cap {STATE_CAP}")


def _guard_sweep(law: LatticeLaw, N: int, start, floor: int | None) -> int:
    """The widest frame of a sweep from start (an int or a sequence of
    starts sharing one state grid), at least one kernel wide; refuses it
    when it exceeds STATE_CAP."""
    starts = [start] if isinstance(start, int) else list(start)
    lo, top = min(starts), max(starts)
    widest = max(law.support[-1] - law.support[0] + 1, _widest(law, N, top, floor) + top - lo)
    _guard(widest)
    return widest


def _guard_table(rows: int, cols: int) -> None:
    """Refuse a float table before allocating it."""
    if rows * cols > TABLE_CELL_CAP:
        raise ResourceCapExceeded(
            f"table of {rows} x {cols} cells exceeds cap {TABLE_CELL_CAP}"
        )


def _unit(law: LatticeLaw) -> int:
    """D, the lcm of the atom denominators."""
    return math.lcm(*(p.denominator for p in law.atoms.values()))


def _last(law: LatticeLaw, N: int, start: int, floor: int | None) -> int:
    """The last nonempty frame of a sweep of N steps: frame n >= 1 holds a
    state when its top, start + n khi, is at or above the floor."""
    khi = law.support[-1]
    if floor is None:
        return N
    if start + khi < floor:
        return 0
    return N if khi >= 0 else min(N, (start - floor) // -khi)


def _widest(law: LatticeLaw, N: int, start: int, floor: int | None) -> int:
    """The widest frame a sweep of N steps reaches.

    Widths follow from the support alone: frame n spans the states from
    max(start + n klo, floor + (n-1) max(klo, 0)) up to start + n khi, and
    past the `_last` frame every frame is empty.  The width is the smaller
    of a nondecreasing and a linear function of n, so its maximum sits at
    the last live frame or where the two cross.
    """
    klo, khi = law.support[0], law.support[-1]
    if floor is None:
        return 1 + N * (khi - klo)
    last = _last(law, N, start, floor)
    if last < 1:
        return 1

    def width(n: int) -> int:
        return start + n * khi + 1 - max(start + n * klo, floor + (n - 1) * max(klo, 0))

    ns = {last}
    if khi < 0:
        cross = (start - floor) // -klo
        ns |= {min(max(cross, 1), last), min(cross + 1, last)}
    return max(width(n) for n in ns)


def _trim(vec: np.ndarray, a: int, b: int) -> tuple[int, int]:
    """The window [a, b) shrunk until both ends hold at least _TINY (empty
    when no state does)."""
    while a < b and vec[a] < _TINY:
        a += 1
    while b > a and vec[b - 1] < _TINY:
        b -= 1
    return a, b


class _Residues:
    """Exact integer arithmetic in int64 residues modulo k primes.

    Frames and reads carry one entry per prime on their last axis; the
    sequences of a residual carry the primes on their second-to-last axis,
    (..., k, N + 1), which `mod` reduces into [0, q).  A series product
    (`conv`) of two reduced sequences of N + 1 terms sums at most N + 1
    products below q^2, which `_prime_pool` keeps below 2^63.  A residual
    reduces to "nonzero modulo some prime".
    """

    def __init__(self, primes: Sequence[int]):
        self.primes = tuple(primes)
        self.q = np.array(self.primes, dtype=np.int64)

    def mod(self, a: np.ndarray) -> np.ndarray:
        return a % self.q[:, None]

    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.mod(np.array([np.convolve(x, y) for x, y in zip(a, b)]))

    def reduce(self, resid: np.ndarray, scale: np.ndarray) -> bool:
        return bool(self.mod(resid).any())


def _sweep_residues(law: LatticeLaw, N: int, start, floor: int | None, res: _Residues,
                    widest: int):
    """`_sweep`'s exact frames as int64 residues modulo res's primes.

    Frames are (states, k), or (states, len(start), k) when start is a
    sequence of starting states: those walks share one state grid and one
    killing floor.  den holds the k residues of D**n.  A step is one
    slice-add per atom of the kernel D p mod q, exact in integers.  widest
    is the widest frame, from `_guard_sweep`.
    """
    klo, khi = law.support[0], law.support[-1]
    starts = [start] if isinstance(start, int) else list(start)
    lo, top = min(starts), max(starts)
    D = _unit(law)
    k, q = len(res.primes), res.q
    kern = np.array([[int(p * D) % qi for qi in res.primes] for p in law.atoms.values()])
    gain = int(kern.sum(0).max())
    atoms = []  # (offset, factor): None for 1, an int shared by every prime (always when D < q)
    for v, col in zip(law.atoms, kern):
        if (col != col[0]).any():
            atoms.append((v - klo, col))
        else:
            atoms.append((v - klo, None if col[0] == 1 else int(col[0])))
    reduced = int(q.max()) - 1
    # int64 headroom: frame entries are nonnegative and at most `bound`.  A
    # step multiplies the bound by at most `gain`, the largest kernel row sum
    # (D when D < q), and a read sums at most `widest` entries, so a frame is
    # reduced mod q only when one of the two could pass 2^63 - 1.
    if gain * reduced > _I64:
        raise ResourceCapExceeded(f"kernel row sum {gain} overflows int64 residues")
    unit = np.array([D % qi for qi in res.primes])
    den = np.ones((N + 1, k), dtype=np.int64)  # D**n mod q, by doubling: den[m:2m] = den[:m] D**m
    m = 1
    while m <= N:
        den[m : 2 * m] = den[: min(m, N + 1 - m)] * (den[m - 1] * unit % q) % q
        m *= 2
    alive = np.zeros((top - lo + 1, len(starts), k), dtype=np.int64)
    alive[np.array(starts) - lo, np.arange(len(starts))] = 1
    if isinstance(start, int):
        alive = alive[:, 0]
    bound = 1
    yield 0, lo, alive, alive[:0], den[0]
    for n in range(1, N + 1):
        if len(alive):
            if bound * gain > _I64:
                alive, bound = alive % q, reduced
            width = len(alive)
            out = np.zeros((width + khi - klo,) + alive.shape[1:], dtype=np.int64)
            for i, kv in atoms:
                out[i : i + width] += alive if kv is None else kv * alive
            alive, bound = out, bound * gain
        lo += klo
        cut = 0 if floor is None else min(max(floor - lo, 0), len(alive))
        dead, alive = alive[:cut], alive[cut:]
        lo += cut
        if bound * widest > _I64:
            alive, bound = alive % q, reduced
        yield n, lo, alive, dead, den[n]


def _sweep(
    law: LatticeLaw,
    N: int,
    start: int = 0,
    floor: int | None = None,
    exact: bool | _Residues = False,
):
    """The walk start + S_n killed on first entry below `floor`, n = 0..N.

    Yields (n, lo, alive, dead, den): alive[i] / den is the mass at state
    lo + i that has stayed >= floor through time n; dead holds the mass
    killed at step n, on the states lo - dead.size .. lo - 1.  Frame 0 is the
    unkilled start.  floor=None runs the free walk.  Float mode uses float64
    arrays with den = 1 (`_sweep_float`); exact mode uses Python-int arrays
    scaled by den = D**n, D the lcm of the atom denominators, or, when
    `exact` is a `_Residues`, int64 residues of them (`_sweep_residues`,
    which also takes a sequence of starts).  The arrays are views of the
    propagator's state, valid until the next step: read them, do not write
    them.  Refuses a sweep whose widest frame exceeds STATE_CAP when it is
    called, before anything is allocated or iterated.
    """
    widest = _guard_sweep(law, N, start, floor)
    if isinstance(exact, _Residues):
        return _sweep_residues(law, N, start, floor, exact, widest)
    if not exact:
        return _sweep_float(law, N, start, floor)
    return _sweep_exact(law, N, start, floor)


def _sweep_exact(law: LatticeLaw, N: int, start: int, floor: int | None):
    """`_sweep`'s exact frames as Python-int arrays scaled by D**n."""
    klo, khi = law.support[0], law.support[-1]
    D = _unit(law)
    kern = np.zeros(khi - klo + 1, dtype=object)
    for v, p in law.atoms.items():
        kern[v - klo] = int(p * D)
    alive = np.array([1], dtype=object)
    lo, den, dead = start, 1, alive[:0]
    yield 0, lo, alive, dead, den
    for n in range(1, N + 1):
        alive = np.convolve(alive, kern) if alive.size else alive
        lo += klo
        den *= D
        cut = 0 if floor is None else min(max(floor - lo, 0), alive.size)
        dead, alive = alive[:cut], alive[cut:]
        lo += cut
        yield n, lo, alive, dead, den


def _sweep_float(law: LatticeLaw, N: int, start: int, floor: int | None):
    """`_sweep`'s float frames, as views of one buffer indexed by state.

    The frames have the width and alignment of the full convolution, but
    only the live window -- the span from the first to the last state
    holding at least _TINY = 2^-120 -- is convolved, with a margin of one
    kernel width either side; every other cell is 0.  The states skipped
    each hold less than _TINY, at most khi - klo + 1 of them feed a cell,
    and the kernel sums to 1, so in exact arithmetic a cell of frame n
    moves by at most (n + 1) (khi - klo) _TINY.  In floats that shift can
    also tip a rounding, and the kernel spreads the tip on: measured, a
    cell moves by that term plus at most a few units in the last place of
    its full-width value.  Both stay far below the last bit of the sums and
    table cells the reductions read: those come out as the floats of the
    full-width convolution.

    The buffer is allocated once, after `_sweep`'s guard.  The state x of
    frame n sits at index x - n c - base, with the drift c the one of 0,
    klo, khi nearest 0: the buffer is at most two kernel widths wider than
    the widest frame for a law with jumps both ways, and at most twice that
    plus two kernel widths for a law whose jumps all have one sign.  A step
    writes np.convolve(window + margin, kern) into it and zeroes only the
    cells written on the step before that this write misses.
    """
    klo, khi = law.support[0], law.support[-1]
    pad = khi - klo
    kern = np.zeros(pad + 1)
    for v, p in law.atoms.items():
        kern[v - klo] = float(p)
    c = min(max(klo, 0), khi)
    dl, dh = klo - c, khi - c  # a step moves a frame's ends by these indices
    steps = min(N, _last(law, N, start, floor) + 1)  # the steps that write
    base = start + steps * dl  # the lowest index any write reaches
    if floor is not None:
        base = max(base, min(start, floor) + dl)
    base = min(start, base)
    buf = np.zeros(start + steps * dh - base + 1)
    f0 = a = w0 = start - base  # frame [f0, f1), live window [a, b), last write [w0, w1)
    f1 = b = w1 = f0 + 1
    buf[f0] = 1.0
    lo, empty = start, buf[:0]
    yield 0, lo, buf[f0:f1], empty, 1
    # the clamps below are written out: on a small frame, max and min calls
    # would cost about a fifth of a step
    for n in range(1, N + 1):
        ws = we = w0
        if b > a:
            s = a - pad if a - pad > f0 else f0
            e = b + pad if b + pad < f1 else f1
            ws, we = s + dl, e + dh
            buf[ws:we] = np.convolve(buf[s:e], kern)
        if ws > w0:
            buf[w0 : min(ws, w1)] = 0.0
        if w1 > we:
            buf[max(we, w0) : w1] = 0.0
        w0, w1 = ws, we
        lo += klo
        dead = empty
        if f1 > f0:
            f0, f1 = f0 + dl, f1 + dh
            if floor is not None and floor > lo:
                cut = min(floor - lo, f1 - f0)
                dead = buf[f0 : f0 + cut]
                f0 += cut
                lo += cut
        a, b = _trim(buf, a + dl if a + dl > f0 else f0, b + dh if b + dh < f1 else f1)
        yield n, lo, buf[f0:f1], dead, 1


# Reads of a frame vector sum or copy along its first axis, the states: a
# residue frame's other axes (starts, primes) pass through.


def _upto_zero(lo: int, vec: np.ndarray):
    """Mass of a frame vector on the states <= 0."""
    return vec[: max(1 - lo, 0)].sum(0)


def _mass(lo: int, vec: np.ndarray, den: int) -> dict[int, Fraction]:
    return {x: Fraction(int(m), den) for x, m in enumerate(vec, lo) if m}


def _reduce(law: LatticeLaw, N: int, read, start: int = 0, floor: int | None = None,
            exact: bool | _Residues = True):
    """(values, dens): read(lo, alive) and den = D**n of every frame n = 0..N
    of a sweep, as object arrays of Python ints (exact), float arrays, or
    int64 residues reduced into [0, q) (a `_Residues`; the prime axis last)."""
    vals, dens = [], []
    for _, lo, alive, _, den in _sweep(law, N, start, floor, exact):
        vals.append(read(lo, alive))
        dens.append(den)
    if isinstance(exact, _Residues):
        return np.array(vals) % exact.q, np.array(dens)
    dtype = object if exact else float
    return np.array(vals, dtype=dtype), np.array(dens, dtype=dtype)


def _total(lo: int, vec: np.ndarray):
    return vec.sum(0)


def _points(xs, lo: int, vec: np.ndarray) -> list:
    """Masses of a frame vector at the states xs."""
    return [vec[x - lo] if 0 <= x - lo < vec.size else 0 for x in xs]


def _below(xs, lo: int, vec: np.ndarray) -> list:
    """Masses of a frame vector on the states < x, for each x in xs."""
    return [vec[: max(x - lo, 0)].sum(0) for x in xs]


def _gather(row: np.ndarray, x0: int, lo: int, vec: np.ndarray) -> None:
    """Copy the masses of a frame vector at the states x0 .. x0 + len(row) - 1
    into row, one slice copy."""
    first, last = max(lo, x0), min(x0 + len(row), lo + len(vec))
    if last > first:
        row[first - x0 : last - x0] = vec[first - lo : last - lo]


def _worst(resid: np.ndarray, scale: np.ndarray):
    """max |resid / scale|: a Fraction for Python-int arrays, else a float.
    Only the nonzero entries of an integer residual become Fractions."""
    if resid.dtype == object:
        return max(
            (Fraction(abs(r), s) for r, s in zip(resid, scale) if r), default=Fraction(0)
        )
    return float(np.max(np.abs(resid) / scale, initial=0.0))


class _Plain:
    """Rational (Python-int) and float arithmetic: nothing to reduce, and a
    residual reduces to its largest entry (`_worst`)."""

    @staticmethod
    def mod(a):
        return a

    conv = staticmethod(np.convolve)
    reduce = staticmethod(_worst)


_PLAIN = _Plain()


# ---------------------------------------------------------------------------
# unconditioned walk


def pmf(law: LatticeLaw, n: int) -> PmfFrame:
    """Exact distribution of S_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for _, lo, alive, _, den in _sweep(law, n, exact=True):
        pass
    return PmfFrame(n=n, mass=_mass(lo, alive, den))


def delta_table(
    law: LatticeLaw,
    N: int,
    xs: Sequence[int] = (),
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Float-mode sweep of the free walk up to horizon N.

    Returns (delta, point_masses) where delta[n] = 1/2 - P(S_n <= 0) for
    n = 0..N (delta[0] = -1/2) and point_masses[x][n] = P(S_n = x) for each
    requested x.  The point masses are columns of one table spanning
    min(xs)..max(xs).
    """
    below, points = _free_float(law, N, xs)
    return 0.5 - below, points


def _free_float(law: LatticeLaw, N: int, xs: Sequence[int]):
    """(below, point_masses) of one float sweep of the free walk:
    below[n] = P(S_n <= 0) and point_masses as in `delta_table`."""
    _guard_table(N + 1, len(xs))  # the span is at least len(xs): refuse before iterating xs
    x0 = min(xs, default=0)
    span = max(xs, default=x0 - 1) - x0 + 1
    _guard_table(N + 1, span)
    sweep = _sweep(law, N)  # refuses an oversized sweep before the sums are allocated
    below = np.empty(N + 1)
    table = np.zeros((N + 1, span))
    for n, lo, vec, _, _ in sweep:
        below[n] = _upto_zero(lo, vec)
        _gather(table[n], x0, lo, vec)
    return below, {x: table[:, x - x0] for x in xs}


# ---------------------------------------------------------------------------
# killed walk (weak and strict)


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
    sweep = _sweep(law, n, 0, 0 if strict else 1, exact=True)
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
) -> np.ndarray:
    """Float table b[n, x] = P(S_n = x, tau > n), n = 0..N, x = 0..x_max."""
    _guard_table(N + 1, x_max + 1)
    sweep = _sweep(law, N, 0, 0 if strict else 1)  # refuses an oversized sweep before `out`
    out = np.zeros((N + 1, x_max + 1))
    for n, lo, vec, _, _ in sweep:
        _gather(out[n], 0, lo, vec)
    return out


def tau_tail(
    law: LatticeLaw,
    x: int,
    N: int,
    mode: str = "rational",
):
    """P(tau_x > n) for n = 0..N.

    Rational mode returns a list of exact Fractions; float mode a numpy
    array.  tau_x = inf{n >= 1: x + S_n <= 0} (weak killing).
    """
    if x < 0:
        raise ValueError("start must be >= 0")
    if mode not in ("rational", "float"):
        raise ValueError(f"mode must be 'rational' or 'float', got {mode!r}")
    exact = mode == "rational"
    T, den = _reduce(law, N, _total, x, 1, exact)
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
# denominator D**n and a power-series product is one convolution.  The
# residuals are written once over a `ring`: `_PLAIN` runs them on Python
# ints (rational mode) or, with D = 1, on floats; a `_Residues` runs them
# modulo primes, with `ring.mod` wherever a product could leave [0, q).
# Sequences keep n on their last axis.


def _spitzer_gap(below: np.ndarray, T: np.ndarray, den: np.ndarray, D, ring):
    """Max defect of Spitzer's factorization, as an error in P(tau_0 > n + 1),
    from below[n] / den[n] = P(S_n <= 0) and T[n] / den[n] = P(tau_0 > n).

    T(s) = sum P(tau_0 > n) s^n = (1-s)^(-1/2) exp(sum Delta_n s^n / n) is
    checked in its log-derivative form 2(1-s) T' = T (1 + 2(1-s) Q'), with
    Q' = sum Delta_n s^(n-1); it needs neither a series exp nor a division
    by n.  The integer residual of entry n < N is below (6n + 5) D**(n+1).
    """
    N = T.shape[-1] - 1
    E = den - 2 * below  # 2 D**n Delta_n
    E[..., 0] = 0
    G = ring.mod(E[..., 1:] - ring.mod(D * E[..., :-1]))  # [s^m] 2(1-s)Q', scaled by D**(m+1)
    n = np.arange(N)
    R = (2 * (n + 1) * T[..., 1:] - (2 * n + 1) * ring.mod(D * T[..., :-1])
         - ring.conv(T, G)[..., :N])
    return ring.reduce(R, 2 * (n + 1) * den[..., 1:])


def _duality_gap(F: np.ndarray, T0: np.ndarray, Tx: np.ndarray, den: np.ndarray, ring):
    """Coefficient-wise defect of sum_n P(tau_x > n) s^n = (1 + sum_(y<x)
    Btilde(s, y)) sum_n P(tau_0 > n) s^n, n = 0..N.  F[n] / den[n] is the
    reversed walk's mass on the states < x under strict killing (F[0] = 1
    is the leading 1); T0 (at least N + 1 terms) and Tx are over den too.
    The integer residual of entry n is below (n + 2) D**n."""
    N = Tx.shape[-1] - 1
    return ring.reduce(ring.conv(F, T0[..., : N + 1])[..., : N + 1] - Tx, den)


def _leftcont_gap(x: int, p: np.ndarray, Tx: np.ndarray, den: np.ndarray, D, ring):
    """Max |P(tau_x = n) - (x/n) P(S_n = -x)| over 1 <= n <= N, from
    p[n] / den[n] = P(S_n = -x) and Tx[n] / den[n] = P(tau_x > n).  The
    integer residual of entry n is below (n + x) D**n."""
    n = np.arange(1, Tx.shape[-1])
    R = n * (ring.mod(D * Tx[..., :-1]) - Tx[..., 1:]) - x * p[..., 1:]
    return ring.reduce(R, n * den[..., 1:])


def spitzer_check(law: LatticeLaw, N: int) -> Fraction:
    """Exact max defect of Spitzer's factorization up to N (`_spitzer_gap`).
    The factorization is exact, so the defect is identically zero."""
    below, den = _reduce(law, N, _upto_zero)
    T, _ = _reduce(law, N, _total, floor=1)
    return _spitzer_gap(below, T, den, _unit(law), _PLAIN)


def leftcont_check(law: LatticeLaw, x_max: int, N: int):
    """Exact max |P(tau_x = n) - (x/n) P(S_n = -x)| over 1<=x<=x_max, 1<=n<=N.

    Valid only for left-continuous walks (downward jumps of one).
    """
    if not law.left_continuous:
        raise NotLeftContinuous("law has downward jumps larger than 1")
    xs = range(1, x_max + 1)
    p, den = _reduce(law, N, partial(_points, [-x for x in xs]))
    D = _unit(law)
    worst = Fraction(0)
    for x in xs:
        T, _ = _reduce(law, N, _total, x, 1)
        worst = max(worst, _leftcont_gap(x, p[:, x - 1], T, den, D, _PLAIN))
    return worst


def duality_check(law: LatticeLaw, x: int, N: int) -> Fraction:
    """Exact coefficient-wise defect of the first-passage duality
    factorization (`_duality_gap`), with Btilde built from the reversed walk
    under strict killing."""
    if x < 1:
        raise ValueError("x must be >= 1")
    F, _ = _reduce(law.reverse(), N, partial(_below, [x]), 0, 0)
    T0, _ = _reduce(law, N, _total, 0, 1)
    Tx, den = _reduce(law, N, _total, x, 1)
    return _duality_gap(F[:, 0], T0, Tx, den, _PLAIN)


def _prime_pool(N: int, D: int) -> tuple[int, int]:
    """(hi, P): the residue primes lie in (2^23, hi), hi = min(2^24,
    isqrt((2^63 - 1) // (N + 1))), so that a series product of N + 1
    residues stays below 2^63.  P is a lower bound on the primes there that
    do not divide D: Dusart's bounds (2010) x/ln x (1 + 1/ln x) <= pi(x)
    (x >= 599) and pi(x) <= x/ln x (1 + 1/ln x + 2.51/ln^2 x) (x >= 355991),
    less the at most bitlen(D)/23 prime factors of D above 2^23."""
    hi = min(1 << 24, math.isqrt(_I64 // (N + 1)))

    def pi_lower(x: float) -> float:
        return x / math.log(x) * (1 + 1 / math.log(x))

    def pi_upper(x: float) -> float:
        return x / math.log(x) * (1 + 1 / math.log(x) + 2.51 / math.log(x) ** 2)

    pool = math.floor(pi_lower(hi - 1)) - math.ceil(pi_upper(_Q_LO)) if hi > _Q_LO + 1 else 0
    return hi, pool - D.bit_length() // 23


def _draw_primes(law: LatticeLaw, N: int, D: int) -> tuple[tuple[int, ...], int]:
    """(primes, P): RESIDUE_PRIMES distinct primes from `_prime_pool(N, D)`
    that do not divide D (modulo such a prime D**n = 0 and every check would
    pass), drawn uniformly by rejection from a random.Random seeded with the
    law's canonical atoms, so that a law always gets the same primes."""
    hi, pool = _prime_pool(N, D)
    if pool < RESIDUE_PRIMES:
        raise ResourceCapExceeded(f"horizon {N} leaves too few primes for int64 residues")
    rng = random.Random(json.dumps(law_to_json(law)))
    primes: list[int] = []
    while len(primes) < RESIDUE_PRIMES:
        q = rng.randrange(_Q_LO + 1, hi, 2)  # odd q < 2^24 is prime when no odd d < 4096 divides it
        # (the gcd with 3 5 7 11 13 turns most composites away before the full trial division)
        if math.gcd(q, 15015) == 1 and (q % _ODDS).all() and D % q and q not in primes:
            primes.append(q)
    return tuple(primes), pool


def identity_suite(law: LatticeLaw, N: int, xs: Sequence[int] = ()) -> IdentitySuite:
    """Spitzer, duality for x = 1..3 and, for left-continuous laws,
    left-continuity, all up to N, each distinct walk swept once and read for
    every check that needs it.

    The exact checks run on int64 residues modulo the primes of
    `_draw_primes`, from three sweeps: the free walk, T_0..T_3 as one stack
    on a common state grid, and the reversed walk under strict killing.
    Every residual entry is below B = bitlen(6 (N + 1) D**N) bits, which
    bounds the chance of a false pass (`IdentitySuite.false_pass`).  Float
    sweeps of the free walk (also read at the states xs) and of T_0 give the
    float Spitzer gap, Delta_n and P(tau_0 > n) up to N.
    """
    D = _unit(law)
    below_f, points = _free_float(law, N, xs)
    T0_f, _ = _reduce(law, N, _total, 0, 1, False)
    primes, pool = _draw_primes(law, N, D)
    ring = _Residues(primes)
    Dq = np.array([D % q for q in ring.primes])[:, None]
    dx = range(1, 4)

    def free_read(lo: int, vec: np.ndarray) -> list:
        pts = np.zeros((3,) + vec.shape[1:], dtype=vec.dtype)
        _gather(pts, -3, lo, vec)  # the states -3, -2, -1
        return [_upto_zero(lo, vec), pts[2], pts[1], pts[0]]

    def seq(vals: np.ndarray) -> np.ndarray:
        return np.moveaxis(vals, 0, -1)  # n last: (..., k, N + 1)

    # free walk: P(S_n <= 0) in row 0, P(S_n = -x) in row x
    free, den = map(seq, _reduce(law, N, free_read, exact=ring))
    T = seq(_reduce(law, N, _total, range(4), 1, ring)[0])  # T[x]: P(tau_x > n)
    F = seq(_reduce(law.reverse(), N, partial(_below, dx), 0, 0, ring)[0])
    leftcont = None
    if law.left_continuous:
        leftcont = any(_leftcont_gap(x, free[x], T[x], den, Dq, ring) for x in dx)
    return IdentitySuite(
        primes=primes,
        pool=pool,
        bits=(6 * (N + 1) * D**N).bit_length(),
        spitzer=_spitzer_gap(free[0], T[0], den, Dq, ring),
        spitzer_float=_spitzer_gap(below_f, T0_f, np.ones(N + 1), 1, _PLAIN),
        duality=tuple(_duality_gap(F[x - 1], T[0], T[x], den, ring) for x in dx),
        leftcont=leftcont,
        delta=0.5 - below_f,
        tau0_tail=T0_f,
        points=points,
    )


# ---------------------------------------------------------------------------
# tail extrapolation


def series_tail_sum(summands: np.ndarray, first_n: int) -> tuple[float, float, float]:
    """Extrapolate sum_(n>N) s_n for a sequence decaying like the a-basis.

    summands[i] = s_(first_n + i).  Fits the last quarter of the data on
    {a_n^(2), a_n^(3), a_n^(4)} and closes the sum with exact basis tails.
    Returns (tail_value, tail_error_estimate, fitted_decay_exponent).
    Raises TailNotDecayed when the raw log-log decay exponent is below 1.2.
    """
    basis_j, min_exponent = (2, 3, 4), 1.2
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
    Raises LawError when the float roots do not split that way, and refuses
    a quotient of degree d + h - 2 above ROOT_DEGREE_CAP before finding roots.
    """
    law.require_expansion_ready()
    h = law.support[-1]
    degree = h - law.support[0] - 2  # of z^d (1 - phi(z)) / (z - 1)^2
    if degree > ROOT_DEGREE_CAP:
        raise ResourceCapExceeded(
            f"ladder root-finding degree {degree} exceeds cap {ROOT_DEGREE_CAP}"
        )
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
