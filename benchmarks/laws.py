"""Seeded generator of the increment laws that the law-batch workload feeds
to the CLI.

Every law is mean-zero and span-1, has exact rational atoms, support inside
[-2, 3] and a positive atom at zero.  Laws come from a fixed pool: twelve
support patterns with eight weight variants each, every variant a pure
function of its (pattern, variant) index.  A run seed chooses one variant
per pattern for each round, so every round has the same mix of support
shapes (and so the same sweep widths) while the weights differ from seed to
seed.  Patterns with an upward jump of 1 and a downward jump of 2 are kept
on purpose: they exercise the left-continuity gate of `expand taux`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

PATTERNS: tuple[tuple[int, ...], ...] = (
    (-1, 0, 1),
    (-1, 0, 2),
    (-1, 0, 3),
    (-1, 0, 1, 2),
    (-1, 0, 1, 3),
    (-1, 0, 1, 2, 3),
    (-2, 0, 1),
    (-2, -1, 0, 1),
    (-2, 0, 3),
    (-2, -1, 0, 2),
    (-2, 0, 1, 2),
    (-2, -1, 0, 1, 2),
)
VARIANTS = 8
_ZERO_SHARES = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def pool_law(pattern: int, variant: int) -> dict[int, Fraction]:
    """Atoms of pool law (pattern, variant): integer weights 1..4 on each
    nonzero point, rescaled per side so the mean is exactly zero, plus a
    zero atom holding a drawn share of the nonzero mass."""
    support = PATTERNS[pattern]
    rng = random.Random(f"fluctuator-law-{pattern}-{variant}")
    neg = {v: rng.randint(1, 4) for v in support if v < 0}
    pos = {v: rng.randint(1, 4) for v in support if v > 0}
    left = sum(-v * w for v, w in neg.items())
    right = sum(v * w for v, w in pos.items())
    weights = {v: w * right for v, w in neg.items()}
    weights.update({v: w * left for v, w in pos.items()})
    nonzero = sum(weights.values())
    weights[0] = rng.choice(_ZERO_SHARES) * nonzero
    total = sum(weights.values())
    atoms = {v: Fraction(w) / total for v, w in sorted(weights.items())}
    assert sum(atoms.values()) == 1
    assert sum(v * p for v, p in atoms.items()) == 0
    assert math.gcd(*(v - support[0] for v in support[1:])) == 1
    return atoms


def law_id(pattern: int, variant: int) -> str:
    return f"p{pattern:02d}v{variant}"


def draw_round(rng: random.Random) -> list[tuple[str, dict[int, Fraction]]]:
    """One law per support pattern, weight variant drawn from `rng`."""
    out = []
    for pattern in range(len(PATTERNS)):
        variant = rng.randrange(VARIANTS)
        out.append((law_id(pattern, variant), pool_law(pattern, variant)))
    return out


def hits_gate_defect(atoms: dict[int, Fraction]) -> bool:
    """True for laws that `expand taux` sends down the left-continuous
    closed form although a downward jump exceeds 1 (max jump 1, min < -1)."""
    return max(atoms) == 1 and min(atoms) < -1


def model_json(atoms: dict[int, Fraction]) -> dict:
    return {"atoms": {str(v): str(p) for v, p in atoms.items()}}
