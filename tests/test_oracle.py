"""DP oracles: float and exact killed tables, the identity suite, tail
closure and ladder renewal, checked against the references of
`oracle_references` (exact pmf tables, the rational single identity
checks, the closed-form ladder heights and the MC estimator)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluctuator import oracle, walk

import oracle_references as refs


def test_pmf_mass_conservation(lazy, skewed):
    for law in (lazy, skewed):
        frame = refs.pmf(law, 12)
        assert sum(frame.mass.values()) == 1


def test_pmf_lazy_known_values(lazy):
    # one step: P(S_1 = 0) = 1/2
    m = refs.pmf(lazy, 1).mass
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


@pytest.mark.parametrize("mode", ["Float", "exact", ""])
def test_tau_tail_rejects_unknown_modes(lazy, mode):
    with pytest.raises(ValueError, match="mode must be"):
        oracle.tau_tail(lazy, 2, 50, mode=mode)


def test_identity_checkers(lazy, skewed):
    assert refs.spitzer_check(lazy, 64) == 0
    assert refs.spitzer_check(skewed, 64) == 0
    assert oracle.identity_suite(lazy, 256).spitzer_float < 1e-13
    assert refs.leftcont_check(lazy, 4, 64) == 0
    for law in (lazy, skewed):
        for x in (1, 3):
            assert refs.duality_check(law, x, 64) == 0


def test_identity_checks_see_one_unit(monkeypatch, lazy, skewed):
    # one scaled DP value off by one unit must show: a check that always
    # returned 0 would pass every other identity test
    reduce = refs._reduce

    def perturbed(*args, **kwargs):
        vals, dens = reduce(*args, **kwargs)
        vals[3] += 1
        return vals, dens

    monkeypatch.setattr(refs, "_reduce", perturbed)
    for law in (lazy, skewed):
        assert refs.spitzer_check(law, 16) > 0
        assert refs.duality_check(law, 2, 16) > 0
        assert refs.leftcont_check(law, 2, 16) > 0
        assert refs.recurrence_gap(law, 5, x=2) != 0


def test_identity_suite_sees_one_unit(monkeypatch, lazy, skewed):
    # the shared suite twin of the test above: every sweep it reads is off
    # by one unit at n = 3, and every exact gap must show it
    _plant(monkeypatch, 3)
    for law in (lazy, skewed):
        ids = oracle.identity_suite(law, 16)
        assert ids.spitzer > 0
        assert ids.spitzer_float > 0.1  # P(tau_0 > 3) is off by 1
        assert all(d > 0 for d in ids.duality)
        assert ids.leftcont > 0


def test_worst_reads_the_nonzero_entries():
    resid = np.array([0, -3, 0, 0], dtype=object)
    scale = np.array([1, 4, 2, 8], dtype=object)
    assert oracle._worst(resid, scale) == Fraction(3, 4)
    zero = oracle._worst(np.array([0, 0, 0, 0], dtype=object), scale)
    assert zero == 0 and isinstance(zero, Fraction)


@st.composite
def _mean_zero_laws(draw):
    """Rational mean-zero laws on [-3, 3] with jumps both ways."""
    w = {v: draw(st.integers(0, 4)) for v in (-3, -2, -1, 1, 2, 3)}
    for side in (-1, 1):
        if not any(c for v, c in w.items() if v * side > 0):
            w[side] = 1
    left = sum(-v * c for v, c in w.items() if v < 0)
    right = sum(v * c for v, c in w.items() if v > 0)
    weights = {v: c * (right if v < 0 else left) for v, c in w.items() if c}
    weights[0] = draw(st.integers(0, 4)) * (left + right)
    total = sum(weights.values())
    return walk.LatticeLaw({v: Fraction(c, total) for v, c in weights.items() if c})


@settings(max_examples=40, deadline=None)
@given(law=_mean_zero_laws(), N=st.integers(0, 40))
def test_identity_suite_matches_the_single_checks(law, N):
    ids = oracle.identity_suite(law, N)
    # the residue checks pass where the rational checks find no defect
    assert ids.spitzer is False and refs.spitzer_check(law, N) == 0
    for x, d in enumerate(ids.duality, 1):
        assert d is False and refs.duality_check(law, x, N) == 0
    if law.left_continuous:
        assert ids.leftcont is False and refs.leftcont_check(law, 3, N) == 0
    else:
        assert ids.leftcont is None
    # the float Spitzer gap sits at rounding level, on the float sweeps that
    # are bit-equal to the public tables
    assert 0 <= ids.spitzer_float < 1e-12
    delta, _ = oracle.delta_table(law, N)
    assert np.array_equal(ids.delta, delta)
    assert np.array_equal(ids.tau0_tail, oracle.tau_tail(law, 0, N, mode="float"))


@settings(max_examples=40, deadline=None)
@given(law=_mean_zero_laws(), x=st.integers(0, 3), N=st.integers(0, 40))
def test_tau_tail_sums_the_exact_frames_and_reads_the_float_killed_walk(law, x, N):
    # rational tau_tail sums the exact frames itself: the Fractions of the
    # reference reduction.  Float tau_tail and the suite's P(tau_0 > n) are
    # the totals of the float killed walk, bit for bit
    T, den = refs._reduce(law, N, refs._total, x, 1)
    want = [Fraction(int(t), int(d)) for t, d in zip(T, den)]
    assert oracle.tau_tail(law, x, N, mode="rational") == want
    killed = oracle._killed_float(law, N, x, 1)[0]
    assert np.array_equal(oracle.tau_tail(law, x, N, mode="float"), killed)
    tau0_tail = oracle.identity_suite(law, N).tau0_tail
    assert np.array_equal(tau0_tail, oracle._killed_float(law, N, 0, 1)[0])


def _plant(mp, n0: int, unit: int = 1):
    """Patch the references' `_reduce`, oracle._residue_reads and
    oracle._killed_float so that every read of every walk is off by `unit`
    at n = n0, in rational, residue and float mode alike (the float killed
    walk in its totals); D**n stays as it is."""
    reduce, reads, killed = refs._reduce, oracle._residue_reads, oracle._killed_float

    def perturbed(*args, **kwargs):
        vals, dens = reduce(*args, **kwargs)
        vals[n0] += unit
        return vals, dens

    def perturbed_killed(*args, **kwargs):
        tail, table = killed(*args, **kwargs)
        tail[n0] += unit
        return tail, table

    def perturbed_reads(*args, **kwargs):
        *seqs, den = reads(*args, **kwargs)
        for seq in seqs:
            seq[..., n0] += unit
        return (*seqs, den)

    mp.setattr(refs, "_reduce", perturbed)
    mp.setattr(oracle, "_residue_reads", perturbed_reads)
    mp.setattr(oracle, "_killed_float", perturbed_killed)


@pytest.mark.parametrize("N, n0", [(600, 3), (600, 590)])
def test_residue_suite_sees_one_unit_past_the_old_caps(monkeypatch, lazy, skewed, N, n0):
    # mod-p twin of test_identity_suite_sees_one_unit at horizons the
    # rational checks were capped below (512 for Spitzer, 256 for the rest)
    _plant(monkeypatch, n0)
    for law in (lazy, skewed):
        ids = oracle.identity_suite(law, N)
        assert len(ids.primes) == oracle.RESIDUE_PRIMES
        assert ids.spitzer is True
        assert ids.duality == (True, True, True)
        assert ids.leftcont is True


@settings(max_examples=40, deadline=None)
@given(
    law=_mean_zero_laws(),
    N=st.integers(1, 40),
    plant=st.none() | st.tuples(st.integers(0, 40), st.sampled_from([-2, -1, 1, 3])),
)
def test_residue_suite_fails_exactly_when_the_rational_checks_do(law, N, plant):
    # with or without a planted defect, a residue check fails exactly when
    # its rational single check finds a nonzero defect
    with pytest.MonkeyPatch.context() as mp:
        if plant is not None:
            _plant(mp, min(plant[0], N), plant[1])
        ids = oracle.identity_suite(law, N)
        assert ids.spitzer == (refs.spitzer_check(law, N) != 0)
        for x, d in enumerate(ids.duality, 1):
            assert d == (refs.duality_check(law, x, N) != 0)
        if law.left_continuous:
            assert ids.leftcont == (refs.leftcont_check(law, 3, N) != 0)


def test_residue_primes_skip_the_law_denominator(monkeypatch):
    # D is the first prime above 2^23, and the draw range is cut to the
    # four primes 8388617 (D), 8388619, 8388623, 8388637: the draw takes the
    # three that are not D (modulo D every check would pass), and the planted
    # unit is still caught
    D = 8388617
    law = walk.LatticeLaw({-1: Fraction(3, D), 0: Fraction(D - 6, D), 1: Fraction(3, D)})
    assert law.denominator == D
    monkeypatch.setattr(oracle, "_prime_pool", lambda N, D: (8388638, 3))
    ids = oracle.identity_suite(law, 40)
    assert sorted(ids.primes) == [8388619, 8388623, 8388637]
    assert not (ids.spitzer or any(ids.duality) or ids.leftcont)
    _plant(monkeypatch, 7)
    ids = oracle.identity_suite(law, 40)
    assert ids.spitzer and all(ids.duality) and ids.leftcont


def test_residue_suite_takes_a_denominator_past_int64(monkeypatch):
    # D > 2^63: the kernel D p mod q differs from prime to prime
    D = (1 << 70) + 25
    law = walk.LatticeLaw({-1: Fraction(3, D), 0: Fraction(D - 6, D), 1: Fraction(3, D)})
    ids = oracle.identity_suite(law, 40)
    assert not (ids.spitzer or any(ids.duality) or ids.leftcont)
    _plant(monkeypatch, 7)
    ids = oracle.identity_suite(law, 40)
    assert ids.spitzer and all(ids.duality) and ids.leftcont


def _exact_reads(law, N, primes):
    """The sequences of `_residue_reads`, from the object-int sweeps reduced
    mod each prime: the free walk's P(S_n <= 0) and P(S_n = -x), T_0..T_3
    (starts 0..3, killed below 1: start 0 lies under the floor) and the
    reversed walk's mass below x = 1..3 under strict killing."""
    q = np.array(primes, dtype=object)[:, None]

    def seq(rows):  # one row of Python ints per frame -> (reads, k, N + 1)
        return (np.array(rows, dtype=object).T[:, None, :] % q).astype(np.int64)

    free, den = [], []
    for _, lo, alive, _, d in oracle._sweep_exact(law, N):
        free.append([alive[: max(1 - lo, 0)].sum()] + refs._points([-1, -2, -3], lo, alive))
        den.append([d])
    T = [[alive.sum() for _, _, alive, _, _ in oracle._sweep_exact(law, N, x, 1)]
         for x in range(4)]
    F = [[alive[: max(x - lo, 0)].sum() for x in (1, 2, 3)]
         for _, lo, alive, _, _ in oracle._sweep_exact(law.reverse(), N, 0, 0)]
    return seq(free), seq(np.array(T, dtype=object).T), seq(F), seq(den)[0]


_D23 = (1 << 23) + 9  # 8388617, the first prime above 2^23
_D70 = (1 << 70) + 25


@settings(max_examples=40, deadline=None)
@given(law=_mean_zero_laws(), N=st.integers(0, 64))
@example(law=walk.LatticeLaw({-3: Fraction(1, 24), -2: Fraction(1, 4), -1: Fraction(1, 24),
                              1: Fraction(2, 3)}), N=64)  # a double root on the unit circle
@example(law=walk.LatticeLaw({-1: Fraction(24, 65), 0: Fraction(2, 5), 1: Fraction(6, 65),
                              2: Fraction(9, 65)}), N=64)  # p03v2
@example(law=walk.LatticeLaw({-1: Fraction(3, _D23), 0: Fraction(_D23 - 6, _D23),
                              1: Fraction(3, _D23)}), N=64)
@example(law=walk.LatticeLaw({-1: Fraction(3, _D70), 0: Fraction(_D70 - 6, _D70),
                              1: Fraction(3, _D70)}), N=64)  # a kernel per prime
@example(law=walk.LatticeLaw({-1: Fraction(5, 6), 5: Fraction(1, 6)}), N=64)  # wide windows
@example(law=walk.LatticeLaw({-5: Fraction(1, 6), 1: Fraction(5, 6)}), N=64)
# past N = 64 the pass drops most states in its second half: only those that
# can still reach the window near 0 by step N stay live
@example(law=walk.skewed_walk(), N=301)
@example(law=walk.LatticeLaw({-1: Fraction(5, 6), 5: Fraction(1, 6)}), N=256)
@example(law=walk.LatticeLaw({-5: Fraction(1, 6), 1: Fraction(5, 6)}), N=256)
# the top live state after step n is (N - n)(-klo): frame N - 1 reads state -klo
@example(law=walk.lazy_walk(), N=1)
def test_residue_reads_are_the_exact_sweeps_reduced(law, N):
    # the residue pass copies a window near 0 a step and unrolls the totals
    # by D**-n: its reads equal, residue for residue, those of the
    # object-int sweeps at every n
    primes, _ = oracle._draw_primes(law, N, law.denominator)
    got = oracle._residue_reads(law, N, oracle._Residues(primes))
    for g, w in zip(got, _exact_reads(law, N, primes), strict=True):
        assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("N", [64, 2048])
def test_residue_primes_are_pinned(lazy, skewed, N):
    # trial division by the odd primes below 4096 decides each odd q < 2^24
    # as division by every odd number below 4096 did: the same primes a law
    p03v2 = walk.LatticeLaw({-1: Fraction(24, 65), 0: Fraction(2, 5), 1: Fraction(6, 65),
                             2: Fraction(9, 65)})
    assert oracle._ODD_PRIMES.tolist() == [
        p for p in range(3, 4096, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
    for law, primes in ((lazy, (13528813, 15530323, 10472237)),
                        (skewed, (9431479, 9026639, 13644329)),
                        (p03v2, (13106857, 15197263, 16313971))):
        assert oracle._draw_primes(law, N, law.denominator) == (primes, 504756)


def test_residue_primes_are_deterministic_and_refused_past_int64(lazy, skewed):
    # seeded from the law's atoms: the same primes on every run, whatever N
    assert oracle.identity_suite(lazy, 20).primes == oracle.identity_suite(lazy, 64).primes
    assert oracle.identity_suite(lazy, 20).primes != oracle.identity_suite(skewed, 20).primes
    # past N + 1 = 2^17 no prime above 2^23 keeps a series product in int64
    with pytest.raises(oracle.ResourceCapExceeded):
        oracle._draw_primes(lazy, 1 << 17, 4)


def test_leftcont_rejects_big_down_jumps(skewed):
    rev = skewed.reverse()  # support {-2, 0, 1}
    with pytest.raises(oracle.NotLeftContinuous):
        refs.leftcont_check(rev, 2, 16)


def test_recurrence_gap_zero(lazy, skewed):
    for law in (lazy, skewed):
        for strict in (False, True):
            for n in (5, 12):
                assert refs.recurrence_gap(law, n, x=3, strict=strict) == 0


def test_ladder_renewal_lazy_flat(lazy):
    u = oracle.ladder_renewal(lazy, 20)
    np.testing.assert_allclose(u, 4.0, rtol=1e-11)


def test_ladder_renewal_matches_strict_green(skewed):
    # q-bar_0(x) = sum_n P(S_n = x, taubar_0 > n) read from the DP table
    N = 4096
    table = oracle.conditioned_table(skewed, N, x_max=3, strict=True)
    u = oracle.ladder_renewal(skewed, 3)
    for x in range(4):
        direct = (1.0 if x == 0 else 0.0) + refs.closed_sum(table[1:, x])
        assert u[x] == pytest.approx(direct, rel=1e-8)


def test_ladder_heights_exact_values(lazy, skewed):
    # Wiener-Hopf: 1 - F(z) = -p_h (z - 1) prod_(|r|>1) (z - r); skewed has
    # z (1 - phi(z)) = -(z - 1)^2 (z + 2) / 4, so F(z) = 1 + (z - 1)(z + 2) / 4
    cases = ((lazy, [3 / 4, 1 / 4]), (skewed, [1 / 2, 1 / 4, 1 / 4]),
             (skewed.reverse(), [1 / 2, 1 / 2]))
    for law, want in cases:
        F = refs.ladder_heights(law)
        assert F.dtype == np.float64
        np.testing.assert_allclose(F, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("e", [Fraction(1, 10**6), Fraction(1, 10**10), Fraction(1, 10**14)])
def test_ladder_heights_of_a_far_outside_root(e):
    # {-1: a, 0: 1 - 2c - 3e, 1: c, 2: e} with a = c + 2e has Q linear, its
    # root -a/e far outside the circle: F(z) = 1 + e (z - 1)(z + a/e), so
    # F = [1 - a, a - e, e].  Read through the reversed law's inside factor,
    # whose constant term is e/a, F[0] is off by 2.9e-4 at e = 1e-14
    c = Fraction(1, 4)
    a = c + 2 * e
    law = walk.make_law({-1: a, 0: 1 - 2 * c - 3 * e, 1: c, 2: e})
    want = np.array([float(1 - a), float(a - e), float(e)])
    np.testing.assert_allclose(refs.ladder_heights(law), want, rtol=1e-14, atol=0)


def test_ladder_heights_refuse_a_wrong_root_split(monkeypatch, skewed):
    # skewed needs h - 1 = 1 root outside the unit circle; none found
    monkeypatch.setattr(oracle.np, "roots", lambda c: np.array([0.5]))
    with pytest.raises(walk.LawError, match="expected 1"):
        refs.ladder_heights(skewed)


def test_ladder_heights_refuse_a_wide_law_before_root_finding(monkeypatch, skewed):
    # skewed's quotient z (1 - phi(z)) / (z - 1)^2 has degree 1
    def roots(c):
        raise AssertionError("np.roots ran")

    monkeypatch.setattr(oracle.np, "roots", roots)
    monkeypatch.setattr(oracle, "ROOT_DEGREE_CAP", 0)
    with pytest.raises(oracle.ResourceCapExceeded, match="degree 1 exceeds cap 0"):
        refs.ladder_heights(skewed)


def test_mc_reproducible_and_covers(lazy):
    kern = sorted(lazy.atoms.items())
    vals = np.array([float(v) for v, _ in kern])
    probs = np.array([float(p) for _, p in kern])

    def sampler(rng, size):
        return rng.choice(vals, size=size, p=probs)

    n = 16
    est1 = refs.mc_tau_tail(sampler, 0, n, paths=40_000, seed=7)
    est2 = refs.mc_tau_tail(sampler, 0, n, paths=40_000, seed=7)
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
    frames = refs.conditioned_pmf(law, N, strict=strict)
    want = [[float(f.prob(y)) for y in range(5)] for f in frames]
    np.testing.assert_allclose(table[1:], want, rtol=1e-13, atol=0)
    assert refs.spitzer_check(law, N) == 0
    assert refs.duality_check(law, x, N) == 0
    assert refs.recurrence_gap(law, min(N, 8), x=x + 1, strict=strict) == 0
    if law.left_continuous:
        assert refs.leftcont_check(law, 3, N) == 0


def _totals_never_touch_the_table(law, N, x_max, x):
    """The totals of the killed walk that starts at x, with the columns
    0..x_max read, after checking that the table never depends on them."""
    # conditioned_table skips the totals; its table is the one the walk with
    # totals reads, bit for bit, from below the floor (start 0) and above it
    table = oracle._killed_float(law, N, 0, 1, x_max + 1)[1]
    assert np.array_equal(oracle.conditioned_table(law, N, x_max), table)
    tail, table = oracle._killed_float(law, N, x, 1, x_max + 1)
    skip = oracle._killed_float(law, N, x, 1, x_max + 1, totals=False)
    assert np.array_equal(skip[1], table) and not skip[0][1:].any()
    # read columns reshape the block operator, so the totals differ from
    # tau_tail's column-free ones by rounding and by the mass each window
    # drops, under _TINY a cell
    klo, khi = law.support[0], law.support[-1]
    atol = (N + 1) * (khi - klo + 1) * oracle._TINY
    np.testing.assert_allclose(tail, oracle.tau_tail(law, x, N, "float"), rtol=1e-13, atol=atol)
    return tail


@settings(max_examples=40, deadline=None)
@given(law=_small_laws(), N=st.integers(0, 1200), x_max=st.integers(0, 12), x=st.integers(2, 6))
def test_killed_walk_totals_never_touch_its_table(law, N, x_max, x):
    _totals_never_touch_the_table(law, N, x_max, x)


@pytest.mark.parametrize("atoms, N", [
    ({-2: Fraction(1, 2), -1: Fraction(1, 2)}, 64),  # all mass dies by step 3: exact zeros
    # a downward drift: every cell falls below _TINY near n = 780
    ({-3: Fraction(2, 15), -2: Fraction(4, 15), -1: Fraction(4, 15), 1: Fraction(1, 5),
      2: Fraction(2, 15)}, 1024),
], ids=["dead", "drift"])
def test_killed_walk_totals_never_touch_the_table_of_an_emptied_window(atoms, N):
    # the window empties (hi = 0) before N, and the walk stops there
    assert _totals_never_touch_the_table(walk.LatticeLaw(atoms), N, 4, 3)[-1] == 0


@settings(max_examples=40, deadline=None)
@given(law=_small_laws(), N=st.integers(0, 32))
def test_delta_table_point_masses_random_laws(law, N):
    xs = (-3, 0, 2, 5)
    _, traces = oracle.delta_table(law, N, xs=xs)
    frames = [refs.pmf(law, n) for n in range(N + 1)]
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

    monkeypatch.setattr(oracle, "_sweep_float", no_sweep)
    with pytest.raises(oracle.ResourceCapExceeded):
        oracle.delta_table(lazy, 64, xs=(0, 1 << 30))


def _full_width_frames(law, N, start, floor):
    """The plain float propagator: np.convolve over every state of the frame."""
    klo, khi = law.support[0], law.support[-1]
    kern = np.zeros(khi - klo + 1)
    for v, p in law.atoms.items():
        kern[v - klo] = float(p)
    lo, vec = start, np.array([1.0])
    yield lo, vec
    for _ in range(N):
        vec = np.convolve(vec, kern) if vec.size else vec
        lo += klo
        cut = 0 if floor is None else min(max(floor - lo, 0), vec.size)
        lo, vec = lo + cut, vec[cut:]
        yield lo, vec


@settings(max_examples=12, deadline=None)
@given(law=_mean_zero_laws(), N=st.integers(1024, 1536))
# the window's shift tips the rounding of a 6.2e-18 cell at n = 164 by one
# ulp, 7.7e-34, above the mass term 165 * 6 * 2^-120 = 7.45e-34
@example(
    law=walk.LatticeLaw({-3: Fraction(33, 314), -2: Fraction(22, 157),
                         -1: Fraction(33, 314), 0: Fraction(62, 157),
                         2: Fraction(10, 157), 3: Fraction(30, 157)}),
    N=1024,
)
def test_live_window_frames_match_full_width_propagator(law, N):
    # the tails fall below the live-window floor _TINY = 2^-120 well before
    # N: the window skips them, and only the mass it drops may differ, by at
    # most (khi - klo) _TINY per step, in cells far below anything a
    # reduction can see.  The shift can also tip a rounding, which the next
    # steps spread: over 6500 random draws of these laws, 12 passed the mass
    # term, by at most 3.9 ulps of the full-width cell.  The bound allows 8.
    # Float sweeps are free walks: the killed walk's block sweep has its own
    # test against the exact sweep
    klo, khi = law.support[0], law.support[-1]
    live = oracle._sweep_float(law, N)
    for n, ((lo, ref), (lo_live, vec)) in enumerate(
        zip(_full_width_frames(law, N, 0, None), live, strict=True)
    ):
        assert lo_live == lo and vec.size == ref.size
        seen = ref >= 2.0**-30
        assert np.array_equal(vec[seen], ref[seen])
        bound = (n + 1) * (khi - klo) * oracle._TINY + 8 * np.spacing(ref)
        assert np.all(np.abs(vec - ref) <= bound)
        assert vec.sum() == ref.sum()
        assert oracle._upto_zero(lo, vec) == oracle._upto_zero(lo, ref)


def test_live_window_skips_the_underflowed_tails(monkeypatch, skewed):
    # a full-width sweep convolves every state of every frame, 1 + 3n cells
    # at step n, into a new frame.  The live window convolves 0.211 of those
    # cells at N = 4096 (the bound leaves a margin of about a fifth), and
    # its frames are views of one buffer allocated before the first step.
    # A step calls np.correlate, or np.convolve while the window is
    # narrower than the kernel: both are counted, one call a step
    cells, sizes = [], []
    zeros, empty = np.zeros, np.empty

    def counting(conv):
        def counted(a, v, *args, **kwargs):
            cells.append(len(a))
            return conv(a, v, *args, **kwargs)
        return counted

    def allocating(alloc):
        def recorded(shape, *args, **kwargs):
            sizes.append(shape)
            return alloc(shape, *args, **kwargs)
        return recorded

    monkeypatch.setattr(np, "convolve", counting(np.convolve))
    monkeypatch.setattr(np, "correlate", counting(np.correlate))
    monkeypatch.setattr(np, "zeros", allocating(zeros))
    monkeypatch.setattr(np, "empty", allocating(empty))
    N = 4096
    for _ in oracle._sweep_float(skewed, N):
        pass
    full = sum(1 + 3 * n for n in range(N))
    assert len(cells) == N
    assert 0 < sum(cells) <= 0.25 * full
    assert sizes == [4, 1 + 3 * N]  # the kernel, then the buffer


def _full_width_reads(law, N):
    """`delta_table(law, N, range(-16, 1))`, `tau_tail(law, 0, N, "float")`
    and `conditioned_table(law, N, 10)`, read off the full-width frames of
    the free walk and of the walk killed below 1."""
    free, killed = _full_width_frames(law, N, 0, None), _full_width_frames(law, N, 0, 1)
    below, points, tail = np.empty(N + 1), np.zeros((N + 1, 17)), np.empty(N + 1)
    table = np.zeros((N + 1, 11))

    def at(xs, lo, vec):
        return [vec[x - lo] if 0 <= x - lo < vec.size else 0.0 for x in xs]

    for n, ((lo, vec), (lo_k, vec_k)) in enumerate(zip(free, killed, strict=True)):
        below[n] = vec[: max(1 - lo, 0)].sum()
        points[n] = at(range(-16, 1), lo, vec)
        tail[n] = vec_k.sum()
        table[n] = at(range(11), lo_k, vec_k)
    return 0.5 - below, points, tail, table


@pytest.mark.parametrize(
    "law, N",
    [(walk.LatticeLaw({-1: Fraction(1, 2), 0: Fraction(1, 4), 1: Fraction(1, 10),
                       2: Fraction(1, 20), 3: Fraction(1, 10)}), 2048),
     (walk.skewed_walk(), 8192),
     (walk.lazy_walk(), 4096)],
    ids=["p05v1-2048", "skewed-8192", "lazy-4096"],
)
def test_float_reads_are_those_of_the_full_width_propagator(law, N):
    """Delta_n and the point masses P(S_n = x) at x = -16..0 equal, float
    for float, the reads of the plain full-width propagator.  They must:
    the paper route's nu_3 amplifies read noise about 10^9-fold, so a
    change of a few ulp in these reads (a reordered pairwise sum, say)
    moves nu_3 of the first law here past the benchmark gate's rtol of
    1e-6.  The laws span numpy's correlate paths: lazy's 3-tap kernel takes
    the small-kernel one, the 4- and 5-tap kernels the general one.

    Only Delta_n feeds nu_3.  The killed walk's float P(tau_0 > n) and
    table at x = 0..10 feed only DP checks (the dp and err columns, the
    float Spitzer gap); they come from k-step blocks, whose sums run in
    another order, and are held to 1e-13 relative."""
    delta, points = oracle.delta_table(law, N, range(-16, 1))
    got = (delta, np.stack([points[x] for x in range(-16, 1)], axis=1),
           oracle.tau_tail(law, 0, N, mode="float"), oracle.conditioned_table(law, N, 10))
    want = _full_width_reads(law, N)
    for g, w in zip(got[:2], want[:2], strict=True):
        np.testing.assert_array_equal(g, w)
    for g, w in zip(got[2:], want[2:], strict=True):
        np.testing.assert_allclose(g, w, rtol=1e-13, atol=0)


@settings(max_examples=30, deadline=None)
@given(
    law=_mean_zero_laws(),
    N=st.one_of(st.integers(0, 40), st.integers(41, 512)),
    start=st.integers(0, 4),
    strict=st.booleans(),
    k=st.sampled_from([None, 1, 2, 3, 8, 32]),
)
def test_block_sweep_matches_the_exact_killed_sweep(law, N, start, strict, k):
    # the float killed walk's totals and table at x = 0..7, k steps a block,
    # against the exact killed sweep: k = None takes the derived block
    # length, the others force one, also above N and not dividing N
    floor, cols = (0 if strict else 1), 8
    with pytest.MonkeyPatch.context() as mp:
        if k is not None:
            mp.setattr(oracle, "_block_length", lambda *args: k)
        tail, table = oracle._killed_float(law, N, start, floor, cols)
        if start == 0:
            np.testing.assert_array_equal(oracle.conditioned_table(law, N, cols - 1, strict), table)
        # no read columns: another block length and near-floor operator
        bare = oracle.tau_tail(law, start, N, mode="float") if not strict else tail
    want_tail, want_table = [], []
    for _, lo, alive, _, den in oracle._sweep_exact(law, N, start, floor):
        want_tail.append(int(alive.sum()) / den)
        want_table.append([int(m) / den for m in refs._points(range(cols), lo, alive)])
    for got in (tail, bare):
        np.testing.assert_allclose(got, want_tail, rtol=1e-13, atol=0)
    np.testing.assert_allclose(table, want_table, rtol=1e-13, atol=0)


def test_block_length_grows_with_the_horizon_within_the_budget():
    # small at N = 64 and at a wide read, 16 to 32 at N >= 2048, and every
    # operator it admits fits _BLOCK_CELLS
    assert oracle._block_length(64, -1, 1, 0) <= 8
    assert oracle._block_length(64, -1, 2, 15151) == 1
    for N in (2048, 1 << 15):
        for klo, khi in ((-1, 1), (-1, 2), (-2, 3), (-3, 3)):
            for W in (0, 10, 30):
                assert 16 <= oracle._block_length(N, klo, khi, W) <= 32
    kern = np.full(7, 1 / 7)
    for W in (0, 10, 30, 100, 400):
        k = oracle._block_length(1 << 15, -3, 3, W)
        if k > 1:
            M, P = oracle._block_operator(kern, -3, 3, k, W)
            assert M.size <= oracle._BLOCK_CELLS and P == 3 * (k - 1)


def test_wide_killed_table_allocates_no_operator_beyond_the_budget(monkeypatch, skewed):
    # expand local --x-max 15151 --horizon 64 reads 15151 columns: an
    # operator of k >= 2 steps would hold about 2 x 15151^2 cells, so the
    # block sweep takes single steps, and besides the table nothing it
    # allocates passes the operator budget
    sizes, operators = [], []
    zeros, eye, build = np.zeros, np.eye, oracle._block_operator

    def recorded(shape, *args, **kwargs):
        sizes.append(int(np.prod(shape)))
        return zeros(shape, *args, **kwargs)

    def recorded_eye(n, m=None, *args, **kwargs):
        sizes.append(n * (n if m is None else m))
        return eye(n, m, *args, **kwargs)

    def built(*args):
        operators.append(build(*args))
        return operators[-1]

    monkeypatch.setattr(np, "zeros", recorded)
    monkeypatch.setattr(np, "eye", recorded_eye)
    monkeypatch.setattr(oracle, "_block_operator", built)
    table = oracle.conditioned_table(skewed, 64, 15151)
    assert table.shape == (65, 15152) and operators == []
    sizes.remove(table.size)
    assert max(sizes) <= oracle._BLOCK_CELLS


@settings(max_examples=200, deadline=None)
@given(
    law=_small_laws(),
    N=st.integers(0, 40),
    start=st.integers(-5, 8),
    floor=st.one_of(st.none(), st.integers(-4, 9)),
    exact=st.booleans(),
)
def test_widest_frame_is_known_before_the_sweep(law, N, start, floor, exact):
    if not exact:
        floor = None  # float sweeps are free: `_killed_float` sweeps the killed walk
    guarded = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_guard", guarded.append)
        oracle._guard_sweep(law, N, start, floor)
    if exact:
        widths = [len(alive) for _, _, alive, _, _ in oracle._sweep_exact(law, N, start, floor)]
    else:
        widths = [len(vec) for _, vec in oracle._sweep_float(law, N)]
    klo, khi = law.support[0], law.support[-1]
    assert oracle._widest(law, N, start, floor) == max(widths)
    assert guarded == [max(khi - klo + 1, max(widths))]


def test_oversized_identity_suite_allocates_nothing_beyond_the_budget(monkeypatch, lazy):
    # the residue pass refuses its state grids before it allocates them, as
    # the suite does as a whole: nothing it makes passes the operator budget
    sizes = []
    zeros, empty, ones = np.zeros, np.empty, np.ones

    def recording(alloc):
        def recorded(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return alloc(shape, *args, **kwargs)
        return recorded

    for name, alloc in (("zeros", zeros), ("empty", empty), ("ones", ones)):
        monkeypatch.setattr(np, name, recording(alloc))
    N = oracle.STATE_CAP // 2  # the free grid spans 2N + 1 states
    with pytest.raises(oracle.ResourceCapExceeded):
        oracle._residue_reads(lazy, N, oracle._Residues((8388617, 8388619, 8388623)))
    with pytest.raises(oracle.ResourceCapExceeded):
        oracle.identity_suite(lazy, N)
    assert max(sizes, default=0) <= oracle._BLOCK_CELLS


def test_oversized_sweep_refused_before_its_first_frame(monkeypatch, lazy):
    # each caller refuses its sweep before it makes a frame or allocates
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep started")

    for name in ("_sweep_float", "_sweep_exact"):
        monkeypatch.setattr(oracle, name, no_sweep)
    with pytest.raises(oracle.ResourceCapExceeded):
        oracle._guard_sweep(lazy, 300_000, 0, 1)
    for mode in ("rational", "float"):
        with pytest.raises(oracle.ResourceCapExceeded):
            oracle.tau_tail(lazy, 0, 300_000, mode=mode)
    with pytest.raises(oracle.ResourceCapExceeded):
        oracle.delta_table(lazy, 300_000)
