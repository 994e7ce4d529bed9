"""Exact ground truth for the expansions: dynamic programming, identity
checks, the Wiener-Hopf ladder factors and renewal sums.

Every DP table is a reduction over sweeps of the walk: the free walk's
float frames (`_sweep_float`) give `delta_table`, and rational `tau_tail`
sums the exact frames of the killed walk (`_sweep_exact`, also the tests'
exact reference).  Two loops read only what they need: k-step blocks give
the float killed walk's totals and table (`_killed_float`), and one residue
pass gives `identity_suite`'s exact checks (`_residue_reads`): six walks
step as the columns of one int64 buffer.  Each keeps live only the states
that can still reach a read (for the killed walk: when it sums no totals).
Each loop refuses its sweep before it allocates anything.  Everything here
is exact (rational mode, or int64 residues modulo primes) or plain float
arithmetic on exact recursions (float mode); no asymptotics enter, so this
module is what the expansion modules are tested against.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .walk import LatticeLaw, LawError, law_to_json

__all__ = [
    "ResourceCapExceeded",
    "NotLeftContinuous",
    "IdentitySuite",
    "delta_table",
    "conditioned_table",
    "tau_tail",
    "identity_suite",
    "ladder_roots",
    "ladder_renewal",
]

# DP states one sweep frame may hold
STATE_CAP = 200_000
# float cells one table may hold (128 MiB of float64)
TABLE_CELL_CAP = 1 << 24
# polynomial degree ladder_roots may hand to np.roots (cubic in the degree)
ROOT_DEGREE_CAP = 1024
# identity_suite's exact checks run modulo this many primes from (2^23, 2^24)
RESIDUE_PRIMES = 3
# live-window floor of the float sweeps: they skip the states below it
_TINY = 2.0**-120
# cells one near-floor operator of `_killed_float` and its build may hold (1 MiB of float64)
_BLOCK_CELLS = 1 << 17
_I64 = (1 << 63) - 1
_Q_LO = 1 << 23  # residue primes lie above this
# the odd primes below 4096, trial divisors of a residue prime < 2^24, sieved by the odd d < 64
_ODD_PRIMES = np.arange(3, 4096, 2)
for _d in range(3, 64, 2):
    _ODD_PRIMES = _ODD_PRIMES[(_ODD_PRIMES % _d != 0) | (_ODD_PRIMES == _d)]
del _d


class ResourceCapExceeded(RuntimeError):
    """A DP frame would grow past STATE_CAP, a table past TABLE_CELL_CAP, or a
    root finding past ROOT_DEGREE_CAP."""


class NotLeftContinuous(LawError):
    """Operation requires downward jumps of size at most one."""


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


# ---------------------------------------------------------------------------
# the killed-walk propagator


def _guard(width: int) -> None:
    if width > STATE_CAP:
        raise ResourceCapExceeded(f"state width {width} exceeds cap {STATE_CAP}")


def _guard_sweep(law: LatticeLaw, N: int, start: int, floor: int | None) -> None:
    """Refuse a sweep whose widest frame, at least a kernel wide, passes STATE_CAP."""
    _guard(max(law.support[-1] - law.support[0] + 1, _widest(law, N, start, floor)))


def _guard_table(rows: int, cols: int) -> None:
    """Refuse a float table before allocating it."""
    if rows * cols > TABLE_CELL_CAP:
        raise ResourceCapExceeded(
            f"table of {rows} x {cols} cells exceeds cap {TABLE_CELL_CAP}"
        )


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


class _Residues:
    """Exact integer arithmetic in int64 residues modulo k primes, on
    sequences (..., k, N + 1) that `mod` reduces into [0, q).  A series
    product (`conv`) of two reduced sequences sums at most N + 1 products
    below q^2, which `_prime_pool` keeps below 2^63.  A residual reduces to
    "nonzero modulo some prime"."""

    def __init__(self, primes: Sequence[int]):
        self.primes = tuple(primes)
        self.q = np.array(self.primes, dtype=np.int64)

    def mod(self, a: np.ndarray) -> np.ndarray:
        return a % self.q[:, None]

    def conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.mod(np.array([np.convolve(x, y) for x, y in zip(a, b)]))

    def reduce(self, resid: np.ndarray, scale: np.ndarray) -> bool:
        return bool(self.mod(resid).any())


def _residue_reads(law: LatticeLaw, N: int, res: _Residues):
    """(free, T, F, den): `identity_suite`'s exact reads, int64 residues in
    [0, q) of shape (rows, k, N + 1) scaled by den = D**n (k, N + 1): free
    holds P(S_n <= 0) and P(S_n = -x), T[x] = P(tau_x > n) as in `tau_tail`,
    and F[x - 1] the reversed walk's mass below x under strict killing, that
    is the forward walk killed above 0 on the states 1 - x..0 (x = 1..3).

    The free walk, the walk killed above 0 and T_0..T_3 step as six columns
    of one ping-pong pair of buffers on one state grid, refused past
    STATE_CAP before it is allocated.  A step is one slice-add per atom of
    the kernel D p mod q, one copy of the window w0..w1 (-3..0, the states
    whose mass can cross 0 in a step and T's killed cells) into an
    (N + 1)-row table, then two zeroings: T's killed cells and the killed
    walk's cells above 0.  After step n only the states that can still
    reach a read, w0 - (N - n) khi .. -(N - n) klo, stay live: the cells
    above 0 are read only up to frame N - 1, by the crossing weights.  That
    is exact, for no read sums a frame: a point mass is a table cell, and a
    total follows x_n = D x_(n-1) + s_n, s_n the mass that crosses to <= 0
    or is killed at step n, which one cumsum unrolls as
    D**n sum_(m<=n) s_m D**-m.  int64 headroom: a step multiplies the bound
    on the live entries by at most `gain` (D when D < q), so they are reduced
    mod q, a prime at a time, only when it could pass 2^63 - 1; the table is
    reduced before any product, so a product is below q^2 < 2^48, a window's
    weighted sum below (span + 4) 2^48, and the cumsum of N + 1 reduced terms
    below (N + 1) q, which `_prime_pool` keeps below 2^63.
    """
    klo, khi = law.support[0], law.support[-1]
    D, k, q = law.denominator, len(res.primes), res.q
    vs = sorted(law.atoms)
    kern = np.array([[law.weights[v] % qi for qi in res.primes] for v in vs])
    gain, reduced = int(kern.sum(0).max()), int(q.max()) - 1
    if gain * reduced > _I64:
        raise ResourceCapExceeded(f"kernel row sum {gain} overflows int64 residues")
    # offset: factor, None for 1, one int for every prime (always when D < q), or a row
    spread = bool((kern != kern[:, :1]).any())
    atoms = {v - klo: col if spread else None if col[0] == 1 else col[0]
             for v, col in zip(vs, kern)}
    # the window w0..w1 = a1: -3..0, the states whose mass crosses 0 in a step (a0..a1)
    # and T's killed cells t0..0; the grid: every state reached, N klo..3 + N khi
    a0, a1, t0 = min(-3, 1 - khi), max(0, -klo), min(klo, 0)
    w0, g0 = min(a0, t0), min(N * klo, a0, t0)
    rows = max(3 + N * max(khi, 0), a1) - g0 + 1
    _guard(rows)
    # (states, columns, primes): primes last in memory, or first if the factors differ by prime
    B = [np.zeros((k, rows, 6), dtype=np.int64).transpose(1, 2, 0) if spread
         else np.zeros((rows, 6, k), dtype=np.int64) for _ in range(2)]
    B[0][np.array([0, 0, 0, 1, 2, 3]) - g0, np.arange(6)] = 1  # T_x starts at x, the rest at 0
    win, dead, up = (slice(w0 - g0, a1 - g0 + 1), slice(t0 - g0, 1 - g0),
                     slice(1 - g0, 1 - g0 + max(khi, 0)))
    tab = np.empty((N + 1, a1 - w0 + 1, 6, k), dtype=np.int64)
    tab[0] = B[0][win]
    # the atom that assigns: one in [-khi, -klo] (klo or khi is one), which covers dst's last
    # write on growing frames, with a factor other than 1 if one has it, multiplied in place
    i0 = max((v - klo for v in vs if -khi <= v <= -klo), key=lambda i: atoms[i] is not None,
             default=0)
    f0 = atoms.pop(i0)
    f0 = 1 if f0 is None else f0
    # live rows after step n: the states reached by then that can still reach a read
    ns = np.arange(N + 1)
    los = np.maximum(ns * klo, w0 - (N - ns) * max(khi, 0)) - g0
    his = np.maximum(los, np.minimum(4 + ns * khi, 1 + (N - ns) * max(-klo, 0)) - g0)
    last, bound = [(-g0, 4 - g0), (0, 0)], 1  # each buffer's last write
    for n, lo, hi in zip(range(1, N + 1), los.tolist(), his.tolist()):
        src, dst = B[n & 1 ^ 1], B[n & 1]
        if bound * gain > _I64:
            live = src[lo:hi]
            for j, qj in enumerate(res.primes):
                np.remainder(live[..., j], qj, out=live[..., j])
            bound = reduced
        bound *= gain
        # dst is 0 outside its last write: zero what the assigning atom misses
        a, b, (l0, l1) = lo + klo + i0, hi + klo + i0, last[n & 1]
        if a > l0:
            dst[l0 : a if a < l1 else l1] = 0
        if l1 > b:
            dst[b if b > l0 else l0 : l1] = 0
        s, out = src[lo:hi], dst[lo + klo :]
        np.multiply(s, f0, out=out[i0 : i0 + hi - lo])
        for i, f in atoms.items():
            out[i : i + hi - lo] += s if f is None else f * s
        last[n & 1] = lo + klo, hi + khi
        tab[n] = dst[win]
        dst[dead, 2:] = 0
        dst[up, 1] = 0

    for j, qj in enumerate(res.primes):
        np.remainder(tab[..., j], qj, out=tab[..., j])
    den, Dq = np.ones((N + 1, 1, k), dtype=np.int64), np.array([D % qi for qi in res.primes])
    for m in (1 << i for i in range(N.bit_length())):  # D**n: D**m times rows 0..m - 1
        den[m : 2 * m] = den[: min(m, N + 1 - m)] * (den[m - 1] * Dq % q) % q
    inv = den[::-1] * [pow(D, -N, qi) for qi in res.primes] % q  # D**-n = D**(N - n) D**-N
    # s_n: the mass crossing to <= 0 (frame n - 1's state z sends sum_(v <= -z) D p_v
    # there and had all D there when z <= 0), and T_0..T_3's killed mass, negated
    zs = np.arange(a0, a1 + 1)[:, None]
    wts = ((np.array(vs) <= -zs) @ kern - (zs <= 0) * kern.sum(0)) % q
    inc = np.ones((N + 1, 5, k), dtype=np.int64)
    inc[1:, 0] = (tab[:-1, a0 - w0 :, 0] * wts).sum(1)
    inc[1:, 1:] = -tab[1:, t0 - w0 : 1 - w0, 2:].sum(1)
    x = (np.cumsum(inc % q * inv % q, axis=0) % q * den % q).transpose(1, 2, 0)
    free = np.concatenate((x[:1], tab[:, [-1 - w0, -2 - w0, -3 - w0], 0].transpose(1, 2, 0)))
    F = np.cumsum(tab[:, [-w0, -1 - w0, -2 - w0], 1], axis=1) % q
    return free, x[1:], F.transpose(1, 2, 0), den[:, 0].T


def _sweep_exact(law: LatticeLaw, N: int, start: int = 0, floor: int | None = None):
    """The walk start + S_n killed on first entry below `floor`, n = 0..N,
    in exact frames.

    Yields (n, lo, alive, dead, den): alive[i] / den is the mass at state
    lo + i that has stayed >= floor through time n; dead holds the mass
    killed at step n, on the states lo - dead.size .. lo - 1.  Frame 0 is the
    unkilled start.  floor=None runs the free walk.  The arrays are
    Python-int arrays scaled by den = D**n, D the lcm of the atom
    denominators.  Unguarded: `_guard_sweep` refuses an oversized sweep.
    """
    klo, khi = law.support[0], law.support[-1]
    D = law.denominator
    kern = np.zeros(khi - klo + 1, dtype=object)
    for v, w in law.weights.items():
        kern[v - klo] = w
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


def _kernel(law: LatticeLaw) -> np.ndarray:
    """The float step law: kern[i] = P(X = klo + i)."""
    kern = np.zeros(law.support[-1] - law.support[0] + 1)
    for v, p in law.atoms.items():
        kern[v - law.support[0]] = float(p)
    return kern


def _sweep_float(law: LatticeLaw, N: int):
    """The float frames of the free walk S_n, n = 0..N: yields (lo, vec),
    vec[i] = P(S_n = lo + i), a view of one buffer indexed by state, valid
    until the next step: read it, do not write it.

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

    The buffer is allocated once, after the caller's `_guard_sweep`.  The
    state x of frame n sits at index x - n c - base, with the drift c the
    one of 0, klo, khi nearest 0: the buffer is at most two kernel widths
    wider than the widest frame.  A step writes the full convolution of
    window + margin with kern into it and zeroes only the cells written on
    the step before that this write misses.  It calls np.correlate with the
    reversed kernel, the call np.convolve makes once the window is at least
    a kernel wide, and np.convolve itself before that.  Then the live window
    shrinks until both ends hold at least _TINY.
    """
    klo, khi = law.support[0], law.support[-1]
    pad = khi - klo
    kern = _kernel(law)
    c = min(max(klo, 0), khi)
    dl, dh = klo - c, khi - c  # a step moves a frame's ends by these indices
    buf = np.zeros(N * (dh - dl) + 1)
    f0 = a = w0 = -N * dl  # frame [f0, f1), live window [a, b), last write [w0, w1)
    f1 = b = w1 = f0 + 1
    buf[f0] = 1.0
    lo = 0
    rkern = kern[::-1].copy()
    yield lo, buf[f0:f1]
    # the clamps below are written out: on a small frame, max and min calls
    # would cost about a fifth of a step
    for n in range(1, N + 1):
        ws = we = w0
        if b > a:
            s = a - pad if a - pad > f0 else f0
            e = b + pad if b + pad < f1 else f1
            ws, we = s + dl, e + dh
            if e - s > pad:
                buf[ws:we] = np.correlate(buf[s:e], rkern, "full")
            else:
                buf[ws:we] = np.convolve(buf[s:e], kern)
        if ws > w0:
            buf[w0 : ws if ws < w1 else w1] = 0.0
        if w1 > we:
            buf[we if we > w0 else w0 : w1] = 0.0
        w0, w1 = ws, we
        lo += klo
        f0, f1 = f0 + dl, f1 + dh
        a = a + dl if a + dl > f0 else f0
        b = b + dh if b + dh < f1 else f1
        while a < b and buf[a] < _TINY:
            a += 1
        while b > a and buf[b - 1] < _TINY:
            b -= 1
        yield lo, buf[f0:f1]


def _upto_zero(lo: int, vec: np.ndarray):
    """Mass of a frame vector on the states <= 0.  A float sweep reads every
    frame, so this calls np.add.reduce, the reduction behind `.sum`, without
    its Python wrapper, and writes its clamp out."""
    return np.add.reduce(vec[: 1 - lo if lo < 1 else 0], 0)


def _worst(resid: np.ndarray, scale: np.ndarray):
    """max |resid / scale|: a Fraction for Python-int arrays, else a float.
    Only the nonzero entries of an integer residual become Fractions."""
    if resid.dtype == object:
        return max(
            (Fraction(abs(r), s) for r, s in zip(resid, scale) if r), default=Fraction(0)
        )
    return float(np.max(np.abs(resid) / scale, initial=0.0))


# rational (Python-int) and float arithmetic: nothing to reduce, and a
# residual reduces to its largest entry
_PLAIN = SimpleNamespace(mod=lambda a: a, conv=np.convolve, reduce=_worst)


# ---------------------------------------------------------------------------
# unconditioned walk


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
    _guard_sweep(law, N, 0, None)
    below = np.empty(N + 1)
    table = np.zeros((N + 1, span))
    top = x0 + span
    for n, (lo, vec) in enumerate(_sweep_float(law, N)):
        below[n] = _upto_zero(lo, vec)
        if span:  # table[n] gets the states x0..top - 1 the frame holds
            a, b = lo if lo > x0 else x0, top if top < lo + vec.size else lo + vec.size
            if b > a:
                table[n, a - x0 : b - x0] = vec[a - lo : b - lo]
    return below, {x: table[:, x - x0] for x in xs}


# ---------------------------------------------------------------------------
# killed walk (weak and strict)


def _block_length(N: int, klo: int, khi: int, W: int) -> int:
    """k, the steps of one block of `_killed_float`, for N steps of a law on
    [klo, khi] read at W columns: the k in 1, 2, 4, .., 32 whose operator
    fits _BLOCK_CELLS and whose estimated cost is least.

    The estimate counts float cells, and a numpy call as 1000 cells.
    `_block_operator` takes five calls and one convolution of R x (R +
    k up + dn) cells by khi - klo + 1 taps a step, R = W + (k - 1) dn.  A
    block takes about ten calls, one product of the R near-floor sources
    with the operator's columns, and four passes over the window, about
    4 (khi - klo) sqrt(N) cells wide.  Convolution and product cells count
    a quarter (vectorised inner loops and BLAS).  The long convolution does
    about the same work a step whatever k is, so it does not enter.  A
    step of k = 1 takes five calls and the passes."""
    call, m, up, dn = 1000, khi - klo + 1, max(khi, 0), max(-klo, 0)
    passes = 16 * (m - 1) * math.isqrt(N)
    best, k_best = N * (5 * call + passes), 1
    for k in (2, 4, 8, 16, 32):
        R = W + (k - 1) * dn
        build, cols = R * (R + k * up + dn), k * (W + 1) + (k - 1) * dn + k * up
        if k > N or 2 * build + R * cols > _BLOCK_CELLS:
            break
        cost = k * (5 * call + m * build // 4) + -(-N // k) * (10 * call + R * cols // 4 + passes)
        if cost < best:
            best, k_best = cost, k
    return k_best


def _block_operator(kern: np.ndarray, klo: int, khi: int, k: int, W: int, totals: bool):
    """(M, P): the near-floor operator of `_killed_float`'s k-step blocks.

    Its rows are the unit sources u = 1..R, R = W + P, P = (k - 1) dn with
    dn = max(-klo, 0), each moved by k plain killed steps.  Row u of M holds,
    for j = 0..k - 1, the mass S_j(u) alive after j steps (with totals only)
    and the masses G_j(u, 1..W) at the read columns, k (W + 1) entries, then
    only for u <= P the masses A_k(u, 1..P + k up) after k steps, up =
    max(khi, 0).  A source above P cannot die within k - 1 steps, and one
    above R can neither die within k - 1 steps nor reach a read column.

    A step is one convolution of all R rows laid end to end, each row
    followed by dn cells that catch what the next row's sources lose below
    u = 1; they are zeroed after the step."""
    up, dn = max(khi, 0), max(-klo, 0)
    P = (k - 1) * dn
    R = W + P
    width = R + k * up  # columns u = 1..width, then dn for the killed mass
    M = np.zeros((R, k * (W + 1) + P + k * up))
    A = np.eye(R, width + dn)
    rkern = kern[::-1].copy()
    for j in range(k + 1):
        if j and R:
            flat = np.correlate(A.ravel(), rkern, "full")  # flat[i] lands at i + klo
            if klo > 0 or khi < 0:  # one-sided: pad so that every cell has a source
                flat = np.concatenate((np.zeros(max(klo, 0)), flat, np.zeros(max(-khi, 0))))
            A = flat[max(-klo, 0) :][: A.size].reshape(A.shape)
            A[:, width:] = 0.0
        if j < k:
            c = j * (W + 1)
            if totals:
                M[:, c] = A.sum(1)
            M[:, c + 1 : c + W + 1] = A[:, :W]
    M[:P, k * (W + 1) :] = A[:P, : P + k * up]
    return M, P


def _killed_float(law: LatticeLaw, N: int, start: int, floor: int, cols: int = 0,
                  totals: bool = True):
    """(tail, table) of the float walk start + S_n killed on first entry
    below floor >= 0: tail[n] = P(tau > n) and table[n, x] = P(start + S_n
    = x, tau > n) for x = 0..cols - 1, n = 0..N.  totals=False sums no
    totals and leaves tail[1:] at 0.

    The walk moves k steps a block (`_block_length`).  In u = x - floor + 1
    a state is alive when u >= 1, and the read columns x >= floor are
    u = 1..W.  The sources above P = (k - 1) dn cannot die before the
    block's last step: one convolution with kern^(*k), whose taps are
    positive, moves them, and the cells it puts below u = 1 are the mass
    killed at that step.  The sources in [1, P] move by the dense killed
    operator of `_block_operator`, which also reads the block's k frames
    off the sources in [1, W + P]: one matrix product, while the sources
    above W + P add their sum to the totals.  A start below the floor takes
    one plain step first.  After each block the window drops its top cells
    below _TINY = 2^-120; each feeds every later cell by less than _TINY.
    With no totals read the operator sums no S_j, and once frame n is next
    the window drops the cells above u = W + (N - n) dn + m, m the taps of
    kern^(*k): the cells kept hold every state that can reach a read column
    by frame N and are fed only by cells kept at the last cut, through the
    same dot products (np.correlate sums an input shorter than m in another
    order).  If the top kept cell is below _TINY, the full window may end
    below the cut: the walk is swept again with totals.  So the table is
    the same bit for bit.  Every cell past buf[:hi] is 0.

    Every cell is a sum of products of positive floats, so its rounding
    stays relative: the reads are within 1e-13 relative of the exact
    killed sweep (measured: within 3e-14 of a per-step float sweep on the
    pool laws at N = 2048).
    """
    _guard_sweep(law, N, start, floor)
    klo, khi = law.support[0], law.support[-1]
    kern, dn = _kernel(law), max(-klo, 0)
    W = max(cols - floor, 0)
    k = _block_length(N, klo, khi, W)
    tail, table = np.zeros(N + 1), np.zeros((N + 1, cols))
    rows = table[:, floor : floor + W]  # the alive columns, u = 1..W
    P = R = 0
    kern_k = kern
    if k > 1:
        M, P = _block_operator(kern, klo, khi, k, W, totals)
        R = W + P
        for _ in range(k - 1):
            kern_k = np.convolve(kern_k, kern)
    rkern_k = kern_k[::-1].copy()
    u0 = start - floor + 1
    buf = np.zeros(max(u0, 0) + N * max(khi, 0) + R + 1)  # buf[i] holds u = i + 1
    n, hi = 0, 0  # the window is buf[:hi]; every cell past it is 0
    cut = False  # whether the reach rule has dropped a cell
    if u0 >= 1:
        buf[u0 - 1], hi = 1.0, u0
    else:  # frame 0 lies below the floor: read it, then take one plain step
        tail[0] = 1.0
        if 0 <= start < cols:
            table[0, start] = 1.0
        n, i = 1, u0 + klo - 1  # i: where kern[0] lands
        if N and i + kern.size > 0:
            buf[max(i, 0) : i + kern.size] = kern[max(-i, 0) :]
            hi = i + kern.size
    off = P + k * klo  # where the far part of a block lands
    at, skip = max(off, 0), max(-off, 0)
    ns = P + k * max(khi, 0) if k > 1 else 0  # the cells the near part lands on
    while n <= N:
        if k > 1:
            j = min(k, N + 1 - n)  # frames n .. n + j - 1 are read off this state
            r = buf[:R] @ M
            read = r[: j * (W + 1)].reshape(j, W + 1)
            if totals:
                tail[n : n + j] = read[:, 0] + np.add.reduce(buf[R:hi])
            rows[n : n + j] = read[:, 1:]
            near = r[k * (W + 1) :]
        else:
            if totals:
                tail[n] = np.add.reduce(buf[:hi])
            rows[n, :hi] = buf[: hi if hi < W else W]  # the cells past hi are 0 (and left untouched)
        if n + k > N or not hi:
            break
        far = np.correlate(buf[P:hi], rkern_k, "full") if hi > P else buf[:0]
        top = off + far.size
        if at or top < hi or top < ns:  # cells the far part does not write
            buf[: hi if hi > ns else ns] = 0.0
        if top > at:
            buf[at:top] = far[skip:]
        if ns:
            buf[:ns] += near
        n += k
        end, reach = max(top, ns, 0), W + (N - n) * dn + rkern_k.size
        if cut and buf[reach - 1] < _TINY:  # the full window may end below the cut
            return tail, _killed_float(law, N, start, floor, cols)[1]
        kept = buf[:end][::-1] >= _TINY  # top down: drop the cells above the last one >= _TINY
        hi = end - int(kept.argmax()) if kept.any() else 0
        if not totals and hi > reach:  # and the states that cannot reach a read column by N
            hi, cut = reach, True
        if hi < end:
            buf[hi:end] = 0.0
    return tail, table


def conditioned_table(
    law: LatticeLaw,
    N: int,
    x_max: int,
    strict: bool = False,
) -> np.ndarray:
    """Float table b[n, x] = P(S_n = x, tau > n), n = 0..N, x = 0..x_max."""
    _guard_table(N + 1, x_max + 1)
    return _killed_float(law, N, 0, 0 if strict else 1, x_max + 1, totals=False)[1]


def tau_tail(
    law: LatticeLaw,
    x: int,
    N: int,
    mode: str = "rational",
):
    """P(tau_x > n) for n = 0..N.

    Rational mode returns a list of exact Fractions; float mode a numpy
    array, exact ones with no sweep when 0 is out of reach by step N
    (x + N klo >= 1).  tau_x = inf{n >= 1: x + S_n <= 0} (weak killing).
    """
    if x < 0:
        raise ValueError("start must be >= 0")
    if mode not in ("rational", "float"):
        raise ValueError(f"mode must be 'rational' or 'float', got {mode!r}")
    if mode == "float" and x + N * law.support[0] < 1:
        return _killed_float(law, N, x, 1)[0]
    _guard_sweep(law, N, x, 1)
    if mode == "float":
        return np.ones(N + 1)
    return [Fraction(int(alive.sum()), den) for _, _, alive, _, den in _sweep_exact(law, N, x, 1)]


# ---------------------------------------------------------------------------
# exact generating-function identities
#
# Each identity is a residual of integer sequences read off sweep frames:
# frame n is scaled by D**n, so products of frames i and n - i share the
# denominator D**n and a power-series product is one convolution.  The
# residuals are written once over a `ring`: `_PLAIN` runs them on Python
# ints (the tests' rational single checks) or, with D = 1, on floats (the
# float Spitzer gap); a `_Residues` runs them modulo primes, with
# `ring.mod` wherever a product could leave [0, q).
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
    if not N:  # no entries, and np.convolve refuses an empty G
        return ring.reduce(T[..., :0], den[..., :0])
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
        q = rng.randrange(_Q_LO + 1, hi, 2)  # odd q < 2^24 is prime when no odd prime < 4096 does
        # (the gcd with 3 5 7 11 13 turns most composites away before the full trial division)
        if math.gcd(q, 15015) == 1 and (q % _ODD_PRIMES).all() and D % q and q not in primes:
            primes.append(q)
    return tuple(primes), pool


def identity_suite(law: LatticeLaw, N: int, xs: Sequence[int] = ()) -> IdentitySuite:
    """Spitzer, duality for x = 1..3 and, for left-continuous laws,
    left-continuity, all up to N, each distinct walk swept once and read for
    every check that needs it.

    The exact checks run on int64 residues modulo the primes of
    `_draw_primes`, from one residue pass over the free walk, T_0..T_3 and
    the reversed walk under strict killing (`_residue_reads`).  Every
    residual entry is below B = bitlen(6 (N + 1) D**N) bits, which bounds
    the chance of a false pass (`IdentitySuite.false_pass`).  Float sweeps
    of the free walk (also read at the states xs) and of T_0 give the float
    Spitzer gap, Delta_n and P(tau_0 > n) up to N.
    """
    D = law.denominator
    below_f, points = _free_float(law, N, xs)
    T0_f = _killed_float(law, N, 0, 1)[0]
    primes, pool = _draw_primes(law, N, D)
    ring = _Residues(primes)
    Dq = np.array([D % q for q in ring.primes])
    # free: P(S_n <= 0) in row 0, P(S_n = -x) in row x; T[x]: P(tau_x > n)
    free, T, F, den = _residue_reads(law, N, ring)
    dx = range(1, 4)
    leftcont = (any(_leftcont_gap(x, free[x], T[x], den, Dq[:, None], ring) for x in dx)
                if law.left_continuous else None)
    return IdentitySuite(
        primes=primes,
        pool=pool,
        bits=(6 * (N + 1) * D**N).bit_length(),
        spitzer=_spitzer_gap(free[0], T[0], den, Dq[:, None], ring),
        spitzer_float=_spitzer_gap(below_f, T0_f, np.ones(N + 1), 1, _PLAIN),
        duality=tuple(_duality_gap(F[x - 1], T[0], T[x], den, ring) for x in dx),
        leftcont=leftcont,
        delta=0.5 - below_f,
        tau0_tail=T0_f,
        points=points,
    )


# ---------------------------------------------------------------------------
# ladder-height structure


def ladder_roots(law: LatticeLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q = z^d (1 - phi(z)) / (z - 1)^2 for jumps in [-d, h] and the monic
    factors of its d - 1 roots inside and h - 1 outside the unit circle, as
    floats, highest power first: the Wiener-Hopf factors at s = 1 (Feller,
    Vol. II, Ch. XII).  Q is divided exactly, in integers times D =
    `law.denominator`, as floats split the double root at 1 and misclassify its
    halves.  Raises LawError when the roots split otherwise; refuses degree
    d + h - 2 > ROOT_DEGREE_CAP first."""
    law.require_expansion_ready()
    d, h = -law.support[0], law.support[-1]
    if d + h - 2 > ROOT_DEGREE_CAP:
        raise ResourceCapExceeded(
            f"ladder root-finding degree {d + h - 2} exceeds cap {ROOT_DEGREE_CAP}"
        )
    # D z^d (1 - phi(z)), highest power first: z^(v + d) sits at index h - v
    c, D = [0] * (d + h + 1), law.denominator
    c[h] += D
    for v, w in law.weights.items():
        c[h - v] -= w
    for _ in range(2):  # synthetic division by z - 1; the remainder is 0
        for i in range(1, len(c)):
            c[i] += c[i - 1]
        c.pop()
    q = np.array([a / D for a in c])  # int / int rounds correctly, as float(Fraction) does
    roots = np.roots(q)
    inside, outside = roots[np.abs(roots) < 1.0], roots[np.abs(roots) > 1.0]
    if (inside.size, outside.size) != (d - 1, h - 1):
        raise LawError(
            f"{outside.size} roots of z^d (1 - phi(z)) outside the unit circle and "
            f"{inside.size} inside, expected {h - 1} and {d - 1}"
        )
    # both factors from their values at M > d, h roots of unity, by one FFT:
    # multiplied in one root at a time (np.poly), they grow like binomials and cancel
    M = 1 << max(d, h).bit_length()
    z = np.exp(2j * np.pi * np.arange(M) / M)
    vals = np.ones((2, M), complex)
    for side, r in zip(vals, (inside, outside)):
        for root in r:
            side *= z - root
    coef = np.fft.fft(vals).real / M
    return q, coef[0, d - 1 :: -1], coef[1, h - 1 :: -1]


def _ladder_escape(law: LatticeLaw, roots: tuple | None = None) -> tuple[float, np.ndarray]:
    """(1 - F[0], F[1..h]) for the first weak ascending ladder height,
    F[k] = P(S_sigma = k), sigma = inf{n >= 1 : S_n >= 0}, from
    F(z) - 1 = p_h (z - 1) A(z), A the outside factor of `ladder_roots`: the
    escape mass 1 - F[0] = p_h A(0) is not rounded against a holding mass near 1.
    Not p_h / A~(0) by the reversed law's inside factor A~: when a root of A
    lies far out, A~(0) is tiny and carries the rounding of A~'s larger terms."""
    p_h = float(law.atoms[law.support[-1]])
    A = (ladder_roots(law) if roots is None else roots)[2]
    return p_h * A[-1], p_h * (np.append(A, 0.0) - np.append(0.0, A))[-2::-1]


def ladder_renewal(law: LatticeLaw, y_max: int, roots: tuple | None = None) -> np.ndarray:
    """Renewal mass u(y) = sum_j P(j-th weak ascending ladder point = y),
    y = 0..y_max, from the exact renewal recursion over the (bounded)
    ladder height distribution (of `roots` = `ladder_roots(law)` if given).

    By time reversal, u equals the Green function of the walk killed
    strictly below zero: u(y) = sum_(n>=0) P(S_n = y, tau-bar > n).
    """
    escape, F = _ladder_escape(law, roots)  # F[k - 1] = P(height k), k >= 1
    u = np.zeros(y_max + 1)
    u[0] = 1.0 / escape
    for y in range(1, y_max + 1):
        k = np.arange(1, min(y, F.size) + 1)
        u[y] = F[k - 1] @ u[y - k] / escape
    return u
