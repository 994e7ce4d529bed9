"""Lattice increment laws: exact-rational atoms, moments, cumulants."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property


class LawError(ValueError):
    pass


class NonProbability(LawError):
    """Masses do not form a probability distribution."""


class EmptySupport(LawError):
    """No atoms given."""


class SpanNotOne(LawError):
    """Expansion entry points require an aperiodic (span-1) lattice walk."""


MAX_CUMULANT_ORDER = 8


class LatticeLaw:
    """Finite-support integer law with exact rational probabilities.

    Immutable after construction; support, mean, variance, span,
    left-continuity, the denominator D and the integer weights D p_v are
    cached lazily, raw moments and cumulants are not.
    Span != 1 is allowed at construction and only rejected by expansion
    entry points (via require_expansion_ready).
    """

    def __init__(self, atoms: dict[int, Fraction]):
        if not atoms:
            raise EmptySupport("law needs at least one atom")
        clean: dict[int, Fraction] = {}
        for v, p in atoms.items():
            p = Fraction(p)
            if p < 0:
                raise NonProbability(f"negative mass {p} at {v}")
            if p > 0:
                clean[int(v)] = p
        if not clean:
            raise EmptySupport("all atoms have zero mass")
        total = sum(clean.values())
        if total != 1:
            raise NonProbability(f"masses sum to {total}, not 1")
        self.atoms: dict[int, Fraction] = dict(sorted(clean.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeLaw) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(tuple(self.atoms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {p}" for v, p in self.atoms.items())
        return f"LatticeLaw({{{inner}}})"

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(self.atoms)

    def raw_moment(self, k: int) -> Fraction:
        return Fraction(sum(c * v**k for v, c in self.weights.items()), self.denominator)

    @cached_property
    def mean(self) -> Fraction:
        return self.raw_moment(1)

    @cached_property
    def variance(self) -> Fraction:
        return self.raw_moment(2) - self.mean**2

    @cached_property
    def span(self) -> int:
        base = self.support[0]
        g = 0
        for v in self.support[1:]:
            g = math.gcd(g, v - base)
        return g if g > 0 else 1

    @cached_property
    def denominator(self) -> int:
        """D, the lcm of the atom denominators."""
        return math.lcm(*(p.denominator for p in self.atoms.values()))

    @cached_property
    def weights(self) -> dict[int, int]:
        """D p_v, the atoms as integers over the denominator D."""
        return {v: int(p * self.denominator) for v, p in self.atoms.items()}

    @cached_property
    def left_continuous(self) -> bool:
        """Downward jumps of size one: -1 is the smallest atom."""
        return self.support[0] == -1

    def cumulants(self, k: int) -> list[Fraction]:
        """kappa_1..kappa_k as exact rationals.

        Standard moments-to-cumulants recursion,
        kappa_n = m_n - sum_(i=1..n-1) C(n-1, i-1) kappa_i m_(n-i),
        run in integers on D^n m_n and K_n = D^n kappa_n, D = `denominator`.
        """
        if k > MAX_CUMULANT_ORDER:
            raise ValueError(f"cumulant order capped at {MAX_CUMULANT_ORDER}")
        D = self.denominator
        w = self.weights
        mu = [D ** (n - 1) * sum(c * v**n for v, c in w.items()) for n in range(1, k + 1)]
        K: list[int] = []
        for n in range(1, k + 1):
            K.append(mu[n - 1] - sum(
                math.comb(n - 1, i - 1) * K[i - 1] * mu[n - i - 1] for i in range(1, n)))
        return [Fraction(kn, D**n) for n, kn in enumerate(K, 1)]

    def reverse(self) -> "LatticeLaw":
        """Law of -X: negated support, odd cumulants flip sign."""
        return LatticeLaw({-v: p for v, p in self.atoms.items()})

    def require_expansion_ready(self) -> None:
        if self.mean != 0:
            raise LawError(f"expansions need mean 0, got {self.mean}")
        if self.variance <= 0:
            raise LawError("expansions need positive variance")
        if self.span != 1:
            raise SpanNotOne(f"expansions need span 1, got span {self.span}")


def make_law(atoms: dict[int, Fraction | int | str]) -> LatticeLaw:
    return LatticeLaw({int(v): Fraction(p) for v, p in atoms.items()})


def law_from_json(path_or_obj) -> LatticeLaw:
    """Load a law from a JSON model spec.

    {"atoms": {"-1": "1/4", "0": "1/2", "1": "1/4"}} with exact rational
    strings; float probabilities are accepted only alongside an explicit
    "tolerance", in which case they are snapped to rationals and
    renormalized.
    """
    if isinstance(path_or_obj, dict):
        obj = path_or_obj
    else:
        with open(path_or_obj) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise LawError("model spec missing 'atoms'")
    raw = obj["atoms"]
    if not isinstance(raw, dict):
        raise LawError("'atoms' must map values to probabilities")
    tol = obj.get("tolerance")
    if tol is not None and (
        isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < 1
    ):
        raise LawError(f"'tolerance' must be a number in (0, 1), got {tol!r}")
    atoms: dict[int, Fraction] = {}
    for v, p in raw.items():
        if isinstance(p, float) and tol is None:
            raise LawError("float probabilities need an explicit 'tolerance' field")
        try:
            if isinstance(p, float):
                atoms[int(v)] = Fraction(p).limit_denominator(int(1 / tol))
            else:
                atoms[int(v)] = Fraction(str(p))
        except (ZeroDivisionError, OverflowError):
            raise LawError(f"atom {v}: {p!r} is not a finite probability") from None
    total = sum(atoms.values())
    if tol is not None:
        if abs(float(total) - 1.0) > float(tol):
            raise NonProbability(f"masses sum to {float(total)}, outside tolerance")
        atoms = {v: p / total for v, p in atoms.items()}
    return LatticeLaw(atoms)


def law_to_json(law: LatticeLaw) -> dict:
    """The model spec of a law, its canonical atoms as exact rational
    strings: law_from_json(law_to_json(law)) == law."""
    return {"atoms": {str(v): str(p) for v, p in law.atoms.items()}}


# Reference laws used throughout the test-bench.
def lazy_walk() -> LatticeLaw:
    """Symmetric lazy walk: {-1: 1/4, 0: 1/2, 1: 1/4}; sigma^2 = 1/2."""
    return make_law({-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)})


def skewed_walk() -> LatticeLaw:
    """Left-continuous skewed walk: {-1: 1/2, 0: 1/4, 2: 1/4}; sigma^2 = 3/2."""
    return make_law({-1: Fraction(1, 2), 0: Fraction(1, 4), 2: Fraction(1, 4)})
