"""Lattice law ingestion, validation, cumulants, reversal and left-continuity."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fluctuator import walk
from fluctuator.walk import LawError, NonProbability, SpanNotOne


def test_builtin_laws(lazy, skewed):
    assert lazy.atoms == {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}
    assert sum(skewed.atoms.values()) == 1
    assert sum(v * p for v, p in skewed.atoms.items()) == 0


def test_cumulants_lazy(lazy):
    k = lazy.cumulants(4)
    assert k[0] == 0  # mean
    assert k[1] == Fraction(1, 2)  # variance
    assert k[2] == 0  # symmetric
    # kappa_4 = m4 - 3 sigma^4 = 1/2 - 3/4
    assert k[3] == Fraction(1, 2) - 3 * Fraction(1, 4)


@st.composite
def _laws(draw):
    support = draw(
        st.lists(st.integers(-4, 4), min_size=2, max_size=5, unique=True)
    )
    weights = [draw(st.integers(1, 9)) for _ in support]
    total = sum(weights)
    return {v: Fraction(w, total) for v, w in zip(support, weights)}


@given(_laws())
def test_reverse_involution_and_cumulant_signs(atoms):
    try:
        law = walk.make_law(atoms)
    except LawError:
        return
    rev = law.reverse()
    assert rev.reverse().atoms == law.atoms
    k = law.cumulants(4)
    kr = rev.cumulants(4)
    for order, (a, b) in enumerate(zip(k, kr), start=1):
        assert b == (a if order % 2 == 0 else -a)


@given(_laws())
@example(walk.lazy_walk().atoms)
@example(walk.skewed_walk().atoms)
@example({-2: Fraction(1, 4), 0: Fraction(1, 4), 1: Fraction(1, 2)})
def test_left_continuous_iff_smallest_atom_is_minus_one(atoms):
    assert walk.make_law(atoms).left_continuous == (min(atoms) == -1)


def test_mass_must_sum_to_one():
    with pytest.raises(NonProbability):
        walk.make_law({-1: Fraction(1, 2), 1: Fraction(1, 3)})


def test_span_must_be_one():
    law = walk.make_law({-2: Fraction(1, 2), 2: Fraction(1, 2)})
    with pytest.raises(SpanNotOne):
        law.require_expansion_ready()


def test_expansion_ready_requires_mean_zero():
    law = walk.make_law({-1: Fraction(1, 3), 0: Fraction(1, 3), 1: Fraction(1, 3)})
    law.require_expansion_ready()
    biased = walk.make_law({-1: Fraction(1, 4), 0: Fraction(1, 4), 1: Fraction(1, 2)})
    with pytest.raises(LawError):
        biased.require_expansion_ready()


def test_json_roundtrip(tmp_path, lazy):
    path = tmp_path / "m.json"
    path.write_text('{"atoms": {"-1": "1/4", "0": "1/2", "1": "1/4"}}')
    assert walk.law_from_json(str(path)).atoms == lazy.atoms


def test_json_floats_need_tolerance(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"atoms": {"-1": 0.25, "0": 0.5, "1": 0.25}}')
    with pytest.raises(LawError):
        walk.law_from_json(str(path))
    path.write_text('{"atoms": {"-1": 0.25, "0": 0.5, "1": 0.25}, "tolerance": 1e-9}')
    assert sum(walk.law_from_json(str(path)).atoms.values()) == 1
