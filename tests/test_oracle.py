"""DP oracles: exact pmf tables, killed tables, identity checkers, tail
closure, ladder renewal, and the MC estimator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctuator import basis, oracle, walk


def test_pmf_mass_conservation(lazy, skewed):
    for law in (lazy, skewed):
        frame = oracle.pmf(law, 12)
        assert sum(frame.mass.values()) == 1


def test_pmf_lazy_known_values(lazy):
    # one step: P(S_1 = 0) = 1/2
    m = oracle.pmf(lazy, 1).mass
    assert m[0] == Fraction(1, 2) and m[1] == Fraction(1, 4)


def test_delta_table_symmetric_lazy(lazy):
    # symmetric walk: Delta_n = 1/2 - P(S_n <= 0) = -P(S_n = 0)/2
    deltas, traces = oracle.delta_table(lazy, 40, xs=(0,))
    p0 = traces[0]
    np.testing.assert_allclose(deltas[1:], -p0[1:] / 2, atol=1e-15)


def test_conditioned_tables_weak_vs_strict(lazy):
    weak = oracle.conditioned_table(lazy, 30, x_max=4, strict=False)
    strict = oracle.conditioned_table(lazy, 30, x_max=4, strict=True)
    # strict keeps state 0 alive: dominates weak everywhere
    assert (strict >= weak - 1e-15).all()
    assert strict[:, 0].max() > 0 and weak[2:, 0].max() == 0


def test_tau_tail_monotone_and_exact_mode(lazy):
    tail = oracle.tau_tail(lazy, 2, 50, mode="rational")
    assert tail[0] == 1
    assert all(tail[n + 1] <= tail[n] for n in range(50))
    flt = oracle.tau_tail(lazy, 2, 50, mode="float")
    np.testing.assert_allclose(flt, [float(v) for v in tail], rtol=1e-14)


def test_identity_checkers(lazy, skewed):
    assert oracle.spitzer_check(lazy, 64, mode="rational") == 0
    assert oracle.spitzer_check(skewed, 64, mode="rational") == 0
    assert oracle.spitzer_check(lazy, 256, mode="float") < 1e-13
    assert oracle.leftcont_check(lazy, 4, 64) == 0
    for law in (lazy, skewed):
        for x in (1, 3):
            assert oracle.duality_check(law, x, 64) == 0


def test_identity_checks_see_one_unit(monkeypatch, lazy, skewed):
    # one scaled DP value off by one unit must show: a check that always
    # returned 0 would pass every other identity test
    reduce = oracle._reduce

    def perturbed(*args, **kwargs):
        vals, dens = reduce(*args, **kwargs)
        vals[3] += 1
        return vals, dens

    monkeypatch.setattr(oracle, "_reduce", perturbed)
    for law in (lazy, skewed):
        assert oracle.spitzer_check(law, 16, mode="rational") > 0
        assert oracle.duality_check(law, 2, 16) > 0
        assert oracle.leftcont_check(law, 2, 16) > 0
        assert oracle.recurrence_gap(law, 5, x=2) != 0


def test_leftcont_rejects_big_down_jumps(skewed):
    rev = skewed.reverse()  # support {-2, 0, 1}
    with pytest.raises(oracle.NotLeftContinuous):
        oracle.leftcont_check(rev, 2, 16)


def test_recurrence_gap_zero(lazy, skewed):
    for law in (lazy, skewed):
        for strict in (False, True):
            for n in (5, 12):
                assert oracle.recurrence_gap(law, n, x=3, strict=strict) == 0


def test_series_tail_sum_recovers_known_tail():
    N = 512
    summand = basis.a_float(3, N)[1:]
    got, err, slope = oracle.series_tail_sum(summand, first_n=1)
    want = float(basis.tail_sum(3, N + 1))
    assert got == pytest.approx(want, rel=1e-6)
    assert 2.0 < slope < 3.0


def test_ladder_renewal_lazy_flat(lazy):
    u = oracle.ladder_renewal(lazy, 20)
    np.testing.assert_allclose(u, 4.0, rtol=1e-11)


def test_ladder_renewal_matches_strict_green(skewed):
    # q-bar_0(x) = sum_n P(S_n = x, taubar_0 > n) read from the DP table
    N = 4096
    table = oracle.conditioned_table(skewed, N, x_max=3, strict=True)
    u = oracle.ladder_renewal(skewed, 3)
    for x in range(4):
        direct = (1.0 if x == 0 else 0.0) + table[1:, x].sum()
        tail, _, _ = oracle.series_tail_sum(table[1:, x], first_n=1)
        assert u[x] == pytest.approx(direct + tail, rel=1e-8)


def test_ladder_heights_exact_values(lazy, skewed):
    # Wiener-Hopf: 1 - F(z) = -p_h (z - 1) prod_(|r|>1) (z - r); skewed has
    # z (1 - phi(z)) = -(z - 1)^2 (z + 2) / 4, so F(z) = 1 + (z - 1)(z + 2) / 4
    cases = ((lazy, [3 / 4, 1 / 4]), (skewed, [1 / 2, 1 / 4, 1 / 4]),
             (skewed.reverse(), [1 / 2, 1 / 2]))
    for law, want in cases:
        F = oracle.ladder_heights(law)
        assert F.dtype == np.float64
        np.testing.assert_allclose(F, want, rtol=0, atol=1e-15)


def test_ladder_heights_refuse_a_wrong_root_split(monkeypatch, skewed):
    # skewed needs h - 1 = 1 root outside the unit circle; none found
    monkeypatch.setattr(oracle.np, "roots", lambda c: np.array([0.5]))
    with pytest.raises(walk.LawError, match="expected 1"):
        oracle.ladder_heights(skewed)


def test_mc_reproducible_and_covers(lazy):
    kern = sorted(lazy.atoms.items())
    vals = np.array([float(v) for v, _ in kern])
    probs = np.array([float(p) for _, p in kern])

    def sampler(rng, size):
        return rng.choice(vals, size=size, p=probs)

    n = 16
    est1 = oracle.mc_tau_tail(sampler, 0, n, paths=40_000, seed=7)
    est2 = oracle.mc_tau_tail(sampler, 0, n, paths=40_000, seed=7)
    assert est1.estimate == est2.estimate  # counter-based streams
    truth = float(oracle.tau_tail(lazy, 0, n, mode="rational")[n])
    assert est1.covers(truth, widths=4.0)


@st.composite
def _small_laws(draw):
    """Rational laws on [-3, 3]; at least half are left-continuous."""
    weights = draw(st.lists(st.integers(0, 4), min_size=7, max_size=7))
    if draw(st.booleans()):
        weights[0] = weights[1] = 0
        weights[2] = max(weights[2], 1)
    if sum(weights) == 0:
        weights[3] = 1
    total = sum(weights)
    return walk.LatticeLaw(
        {v: Fraction(w, total) for v, w in zip(range(-3, 4), weights) if w}
    )


@settings(max_examples=60, deadline=None)
@given(law=_small_laws(), N=st.integers(1, 48), x=st.integers(1, 3), strict=st.booleans())
def test_propagator_reductions_random_laws(law, N, x, strict):
    exact = oracle.tau_tail(law, x, N, mode="rational")
    np.testing.assert_allclose(
        oracle.tau_tail(law, x, N, mode="float"), [float(v) for v in exact],
        rtol=1e-13, atol=0,
    )
    table = oracle.conditioned_table(law, N, x_max=4, strict=strict)
    frames = oracle.conditioned_pmf(law, N, strict=strict)
    want = [[float(f.prob(y)) for y in range(5)] for f in frames]
    np.testing.assert_allclose(table[1:], want, rtol=1e-13, atol=0)
    assert oracle.spitzer_check(law, N, mode="rational") == 0
    assert oracle.duality_check(law, x, N) == 0
    assert oracle.recurrence_gap(law, min(N, 8), x=x + 1, strict=strict) == 0
    if law.tag.left_continuous:
        assert oracle.leftcont_check(law, 3, N) == 0


@settings(max_examples=40, deadline=None)
@given(law=_small_laws(), N=st.integers(0, 32))
def test_delta_table_point_masses_random_laws(law, N):
    xs = (-3, 0, 2, 5)
    _, traces = oracle.delta_table(law, N, xs=xs)
    frames = [oracle.pmf(law, n) for n in range(N + 1)]
    for x in xs:
        want = [float(f.prob(x)) for f in frames]
        np.testing.assert_allclose(traces[x], want, rtol=1e-13, atol=0)
    # P(S~_n = x) = P(S_n = -x): the reversed walk's columns are the mirror
    _, mirrored = oracle.delta_table(law, N, xs=[-x for x in xs])
    _, reversed_ = oracle.delta_table(law.reverse(), N, xs=xs)
    for x in xs:
        np.testing.assert_allclose(reversed_[x], mirrored[-x], rtol=1e-13, atol=0)


def test_delta_table_guards_the_span(monkeypatch, lazy):
    # two points 2^30 apart need a 2^30-column table: refuse it before
    # the sweep starts
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep started")

    monkeypatch.setattr(oracle, "_sweep", no_sweep)
    with pytest.raises(oracle.ResourceCapExceeded):
        oracle.delta_table(lazy, 64, xs=(0, 1 << 30))
