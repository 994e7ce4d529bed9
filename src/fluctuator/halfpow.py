"""Arithmetic on formal series in powers of (1-s)^(1/2) with numeric
remainders.

A series is a finite half-index polynomial sum_i c_i (1-s)^(i/2) plus a
remainder coefficient sequence h_0..h_N, optionally tagged with an advisory
decay class (m, r) meaning |h_n| <~ log^r(n) / n^((m+3)/2).  Tags are
propagated by the algebra rules and verified empirically by `classify`;
nothing here proves membership, it measures it over a finite horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import basis

__all__ = [
    "HalfPowSeries",
    "ClassEstimate",
    "TruncationMismatch",
    "NegativeIndex",
    "InsufficientLength",
    "kappa",
    "from_poly",
    "extract",
    "mul",
    "div_sqrt",
    "exp_poly",
    "classify",
]


class TruncationMismatch(ValueError):
    """Operands carry different truncation horizons."""


class NegativeIndex(ValueError):
    """Operation requires a series with no (1-s)^(-1/2) part."""


class InsufficientLength(ValueError):
    """Remainder too short to classify."""


@dataclass(frozen=True)
class HalfPowSeries:
    """poly_part maps half-index i (coefficient of (1-s)^(i/2), i >= -1) to
    a float; remainder has length N + 1."""

    poly_part: dict[int, float]
    remainder: np.ndarray
    class_tag: tuple[int, int] | None = None

    @property
    def N(self) -> int:
        return self.remainder.size - 1

    @property
    def i_min(self) -> int:
        return min(self.poly_part) if self.poly_part else 0

    def trimmed(self) -> "HalfPowSeries":
        kept = {i: c for i, c in self.poly_part.items() if c != 0.0}
        return replace(self, poly_part=kept)


@dataclass(frozen=True)
class ClassEstimate:
    m: int
    r: int
    decay_exponent: float
    defects: tuple[float, ...]


@lru_cache(maxsize=256)
def _kappa_cached(i: int, N: int) -> np.ndarray:
    if i % 2:  # odd: (1-s)^(j - 3/2) with j = (i+3)/2
        return basis.a_float((i + 3) // 2, N)
    p = i // 2
    out = np.zeros(N + 1)
    if p >= 0:
        for n in range(min(p, N) + 1):
            out[n] = (-1) ** n * math.comb(p, n)
    else:
        for n in range(N + 1):
            out[n] = math.comb(n - p - 1, -p - 1)
    return out


def kappa(i: int, N: int) -> np.ndarray:
    """Coefficients kappa(i, n) = [s^n](1-s)^(i/2), n = 0..N."""
    arr = _kappa_cached(i, N)
    arr.setflags(write=False)
    return arr


def from_poly(
    poly: dict[int, float],
    N: int,
    class_tag: tuple[int, int] | None = None,
) -> HalfPowSeries:
    if poly and min(poly) < -1:
        raise NegativeIndex("half-index below -1 in poly part")
    return HalfPowSeries(
        poly_part=dict(poly), remainder=np.zeros(N + 1), class_tag=class_tag
    ).trimmed()


def extract(A: HalfPowSeries) -> np.ndarray:
    """[s^n] A for n = 0..N."""
    out = A.remainder.copy()
    for i, c in A.poly_part.items():
        if c:
            out += c * kappa(i, A.N)
    return out


def _check_lengths(A: HalfPowSeries, B: HalfPowSeries) -> None:
    if A.N != B.N:
        raise TruncationMismatch(f"horizons differ: {A.N} vs {B.N}")


def _mul_tag(A: HalfPowSeries, B: HalfPowSeries) -> tuple[int, int] | None:
    if A.class_tag is None or B.class_tag is None:
        return None
    m = min(A.class_tag[0], B.class_tag[0])
    r = A.class_tag[1] + B.class_tag[1]
    if A.i_min + B.i_min <= -1:
        # a residual 1/sqrt(1-s) factor costs half an order of decay
        r += m % 2
        m -= 1
    return (m, r)


def mul(A: HalfPowSeries, B: HalfPowSeries) -> HalfPowSeries:
    """Product; poly x poly stays symbolic, everything else lands in the
    remainder via exact coefficient convolution."""
    _check_lengths(A, B)
    N = A.N
    poly: dict[int, float] = {}
    for ia, ca in A.poly_part.items():
        for ib, cb in B.poly_part.items():
            poly[ia + ib] = poly.get(ia + ib, 0.0) + ca * cb
    full = np.convolve(extract(A), extract(B))[: N + 1]
    rem = full.copy()
    for i, c in poly.items():
        if c:
            rem -= c * kappa(i, N)
    return HalfPowSeries(poly_part=poly, remainder=rem, class_tag=_mul_tag(A, B)).trimmed()


def div_sqrt(A: HalfPowSeries) -> HalfPowSeries:
    """Divide by sqrt(1-s): half-indices shift down by one, the remainder is
    convolved with a^(1), and any poly term pushed below index -1 is
    extracted into the remainder."""
    N = A.N
    a1 = kappa(-1, N)
    rem = np.convolve(a1, A.remainder)[: N + 1]
    poly: dict[int, float] = {}
    for i, c in A.poly_part.items():
        if i - 1 >= -1:
            poly[i - 1] = poly.get(i - 1, 0.0) + c
        else:
            rem += c * kappa(i - 1, N)
    tag = None
    if A.class_tag is not None:
        m, r = A.class_tag
        tag = (m - 1, r + (m % 2))
    return HalfPowSeries(poly_part=poly, remainder=rem, class_tag=tag).trimmed()


def exp_poly(A: HalfPowSeries, order: int) -> HalfPowSeries:
    """exp(A) with the poly part kept up to half-index `order`; poly
    overflow beyond that is folded into the remainder.

    Requires i_min >= 0 (no 1/sqrt(1-s) part).  The constant term
    exponentiates as a scalar.
    """
    if A.poly_part and A.i_min < 0:
        raise NegativeIndex("exp_poly needs half-indices >= 0")
    N = A.N
    c0 = A.poly_part.get(0, 0.0)
    body = HalfPowSeries(
        poly_part={i: c for i, c in A.poly_part.items() if i != 0},
        remainder=A.remainder.copy(),
        class_tag=A.class_tag,
    )
    acc = from_poly({0: 1.0}, N)
    term = from_poly({0: 1.0}, N)
    scale = max(1.0, float(np.abs(extract(A)).max()))
    for k in range(1, 4 * order + 64):
        term = _fold_above(mul(term, body), order)
        term = HalfPowSeries(
            poly_part={i: c / k for i, c in term.poly_part.items()},
            remainder=term.remainder / k,
        )
        acc = HalfPowSeries(
            poly_part={
                i: acc.poly_part.get(i, 0.0) + term.poly_part.get(i, 0.0)
                for i in set(acc.poly_part) | set(term.poly_part)
            },
            remainder=acc.remainder + term.remainder,
        )
        if not term.trimmed().poly_part and np.abs(term.remainder).max(initial=0.0) < 1e-17 * scale:
            break
    out = replace(acc, class_tag=A.class_tag)
    if c0:
        f = math.exp(c0)
        out = HalfPowSeries(
            poly_part={i: f * c for i, c in out.poly_part.items()},
            remainder=f * out.remainder,
            class_tag=A.class_tag,
        )
    return out.trimmed()


def _fold_above(A: HalfPowSeries, order: int) -> HalfPowSeries:
    """Move poly terms with half-index > order into the remainder."""
    keep = {i: c for i, c in A.poly_part.items() if i <= order}
    rem = A.remainder.copy()
    for i, c in A.poly_part.items():
        if i > order and c:
            rem += c * kappa(i, A.N)
    return HalfPowSeries(poly_part=keep, remainder=rem, class_tag=A.class_tag)


def classify(A: HalfPowSeries) -> ClassEstimate:
    """Estimate the decay class (m, r) of the remainder and report the
    orthogonality sums sum_n h_n n^k for k = 0..floor(m/2)."""
    h = A.remainder
    if h.size < 257:
        raise InsufficientLength("need remainder length >= 256 to classify")
    grid = np.arange(h.size // 4, h.size)
    vals = np.abs(h[grid])
    mask = vals > 0
    if mask.sum() < 16:
        return ClassEstimate(m=10**6, r=0, decay_exponent=float("inf"), defects=(0.0,))
    ns = grid[mask].astype(float)
    slope = -np.polyfit(np.log(ns), np.log(vals[mask]), 1)[0]
    m = max(-1, round(2 * slope - 3))
    # residual log power after removing the fitted polynomial decay
    corrected = vals[mask] * ns ** ((m + 3) / 2.0)
    r = max(0, round(np.polyfit(np.log(np.log(ns + 2)), np.log(corrected + 1e-300), 1)[0]))
    ks = range(0, max(0, m // 2) + 1)
    n_all = np.arange(h.size, dtype=float)
    defects = tuple(float(np.sum(h * n_all**k)) for k in ks)
    return ClassEstimate(m=m, r=r, decay_exponent=float(slope), defects=defects)
