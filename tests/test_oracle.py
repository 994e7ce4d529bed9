"""DP oracles: exact pmf tables, killed tables, identity checkers, tail
closure, ladder renewal, and the MC estimator."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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


@pytest.mark.parametrize("mode", ["Float", "exact", ""])
def test_tau_tail_rejects_unknown_modes(lazy, mode):
    with pytest.raises(ValueError, match="mode must be"):
        oracle.tau_tail(lazy, 2, 50, mode=mode)


def test_identity_checkers(lazy, skewed):
    assert oracle.spitzer_check(lazy, 64) == 0
    assert oracle.spitzer_check(skewed, 64) == 0
    assert oracle.identity_suite(lazy, 256).spitzer_float < 1e-13
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
        assert oracle.spitzer_check(law, 16) > 0
        assert oracle.duality_check(law, 2, 16) > 0
        assert oracle.leftcont_check(law, 2, 16) > 0
        assert oracle.recurrence_gap(law, 5, x=2) != 0


def test_identity_suite_sees_one_unit(monkeypatch, lazy, skewed):
    # the shared suite twin of the test above: every sweep it reads is off
    # by one unit at n = 3, and every exact gap must show it
    reduce = oracle._reduce

    def perturbed(*args, **kwargs):
        vals, dens = reduce(*args, **kwargs)
        vals[3] += 1
        return vals, dens

    monkeypatch.setattr(oracle, "_reduce", perturbed)
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
@given(law=_mean_zero_laws(), N=st.integers(1, 40))
def test_identity_suite_matches_the_single_checks(law, N):
    ids = oracle.identity_suite(law, N)
    # the residue checks pass where the rational checks find no defect
    assert ids.spitzer is False and oracle.spitzer_check(law, N) == 0
    for x, d in enumerate(ids.duality, 1):
        assert d is False and oracle.duality_check(law, x, N) == 0
    if law.left_continuous:
        assert ids.leftcont is False and oracle.leftcont_check(law, 3, N) == 0
    else:
        assert ids.leftcont is None
    # the float Spitzer gap sits at rounding level, on the float sweeps that
    # are bit-equal to the public tables
    assert 0 <= ids.spitzer_float < 1e-12
    delta, _ = oracle.delta_table(law, N)
    assert np.array_equal(ids.delta, delta)
    assert np.array_equal(ids.tau0_tail, oracle.tau_tail(law, 0, N, mode="float"))


def _plant(n0: int, unit: int = 1):
    """Patch oracle._reduce so that every sweep it reads is off by `unit` at
    n = n0, in rational, float and residue mode alike."""
    reduce = oracle._reduce

    def perturbed(*args, **kwargs):
        vals, dens = reduce(*args, **kwargs)
        vals[n0] += unit
        return vals, dens

    return perturbed


@pytest.mark.parametrize("N, n0", [(600, 3), (600, 590)])
def test_residue_suite_sees_one_unit_past_the_old_caps(monkeypatch, lazy, skewed, N, n0):
    # mod-p twin of test_identity_suite_sees_one_unit at horizons the
    # rational checks were capped below (512 for Spitzer, 256 for the rest)
    monkeypatch.setattr(oracle, "_reduce", _plant(n0))
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
            mp.setattr(oracle, "_reduce", _plant(min(plant[0], N), plant[1]))
        ids = oracle.identity_suite(law, N)
        assert ids.spitzer == (oracle.spitzer_check(law, N) != 0)
        for x, d in enumerate(ids.duality, 1):
            assert d == (oracle.duality_check(law, x, N) != 0)
        if law.left_continuous:
            assert ids.leftcont == (oracle.leftcont_check(law, 3, N) != 0)


def test_residue_primes_skip_the_law_denominator(monkeypatch):
    # D is the first prime above 2^23, and the draw range is cut to the
    # four primes 8388617 (D), 8388619, 8388623, 8388637: the draw takes the
    # three that are not D (modulo D every check would pass), and the planted
    # unit is still caught
    D = 8388617
    law = walk.LatticeLaw({-1: Fraction(3, D), 0: Fraction(D - 6, D), 1: Fraction(3, D)})
    assert oracle._unit(law) == D
    monkeypatch.setattr(oracle, "_prime_pool", lambda N, D: (8388638, 3))
    ids = oracle.identity_suite(law, 40)
    assert sorted(ids.primes) == [8388619, 8388623, 8388637]
    assert not (ids.spitzer or any(ids.duality) or ids.leftcont)
    monkeypatch.setattr(oracle, "_reduce", _plant(7))
    ids = oracle.identity_suite(law, 40)
    assert ids.spitzer and all(ids.duality) and ids.leftcont


def test_residue_suite_takes_a_denominator_past_int64(monkeypatch):
    # D > 2^63: the kernel D p mod q differs from prime to prime
    D = (1 << 70) + 25
    law = walk.LatticeLaw({-1: Fraction(3, D), 0: Fraction(D - 6, D), 1: Fraction(3, D)})
    ids = oracle.identity_suite(law, 40)
    assert not (ids.spitzer or any(ids.duality) or ids.leftcont)
    monkeypatch.setattr(oracle, "_reduce", _plant(7))
    ids = oracle.identity_suite(law, 40)
    assert ids.spitzer and all(ids.duality) and ids.leftcont


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


def test_ladder_heights_refuse_a_wide_law_before_root_finding(monkeypatch, skewed):
    # skewed's quotient z (1 - phi(z)) / (z - 1)^2 has degree 1
    def roots(c):
        raise AssertionError("np.roots ran")

    monkeypatch.setattr(oracle.np, "roots", roots)
    monkeypatch.setattr(oracle, "ROOT_DEGREE_CAP", 0)
    with pytest.raises(oracle.ResourceCapExceeded, match="degree 1 exceeds cap 0"):
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
    assert oracle.spitzer_check(law, N) == 0
    assert oracle.duality_check(law, x, N) == 0
    assert oracle.recurrence_gap(law, min(N, 8), x=x + 1, strict=strict) == 0
    if law.left_continuous:
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
@given(
    law=_mean_zero_laws(),
    N=st.integers(1024, 1536),
    start=st.integers(0, 4),
    floor=st.sampled_from([None, 0, 1]),
)
# the window's shift tips the rounding of a 6.2e-18 cell at n = 164 by one
# ulp, 7.7e-34, above the mass term 165 * 6 * 2^-120 = 7.45e-34
@example(
    law=walk.LatticeLaw({-3: Fraction(33, 314), -2: Fraction(22, 157),
                         -1: Fraction(33, 314), 0: Fraction(62, 157),
                         2: Fraction(10, 157), 3: Fraction(30, 157)}),
    N=1024, start=0, floor=None,
)
def test_live_window_frames_match_full_width_propagator(law, N, start, floor):
    # the tails fall below the live-window floor _TINY = 2^-120 well before
    # N: the window skips them, and only the mass it drops may differ, by at
    # most (khi - klo) _TINY per step, in cells far below anything a
    # reduction can see.  The shift can also tip a rounding, which the next
    # steps spread: over 6500 random draws of these laws, 12 passed the mass
    # term, by at most 3.9 ulps of the full-width cell.  The bound allows 8
    klo, khi = law.support[0], law.support[-1]
    live = oracle._sweep(law, N, start, floor)
    for n, ((lo, ref), (_, lo_live, vec, _, _)) in enumerate(
        zip(_full_width_frames(law, N, start, floor), live, strict=True)
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
    # its frames are views of one buffer allocated before the first step
    cells, sizes = [], []
    convolve, zeros, empty = np.convolve, np.zeros, np.empty

    def counting(a, v, *args, **kwargs):
        cells.append(len(a))
        return convolve(a, v, *args, **kwargs)

    def allocating(alloc):
        def recorded(shape, *args, **kwargs):
            sizes.append(shape)
            return alloc(shape, *args, **kwargs)
        return recorded

    monkeypatch.setattr(np, "convolve", counting)
    monkeypatch.setattr(np, "zeros", allocating(zeros))
    monkeypatch.setattr(np, "empty", allocating(empty))
    N = 4096
    for _ in oracle._sweep(skewed, N):
        pass
    full = sum(1 + 3 * n for n in range(N))
    assert sum(cells) <= 0.25 * full
    assert sizes == [4, 1 + 3 * N]  # the kernel, then the buffer


def _full_width_reads(law, N):
    """`delta_table(law, N, range(-16, 1))`, `tau_tail(law, 0, N, "float")`
    and `conditioned_table(law, N, 10)`, read off the full-width frames of
    the free walk and of the walk killed below 1."""
    free, killed = _full_width_frames(law, N, 0, None), _full_width_frames(law, N, 0, 1)
    below, points, tail = np.empty(N + 1), np.zeros((N + 1, 17)), np.empty(N + 1)
    table = np.zeros((N + 1, 11))
    for n, ((lo, vec), (lo_k, vec_k)) in enumerate(zip(free, killed, strict=True)):
        below[n] = oracle._upto_zero(lo, vec)
        oracle._gather(points[n], -16, lo, vec)
        tail[n] = vec_k.sum()
        oracle._gather(table[n], 0, lo_k, vec_k)
    return 0.5 - below, points, tail, table


@pytest.mark.parametrize(
    "law, N",
    [(walk.LatticeLaw({-1: Fraction(1, 2), 0: Fraction(1, 4), 1: Fraction(1, 10),
                       2: Fraction(1, 20), 3: Fraction(1, 10)}), 2048),
     (walk.skewed_walk(), 8192)],
    ids=["p05v1-2048", "skewed-8192"],
)
def test_float_reads_are_those_of_the_full_width_propagator(law, N):
    """Delta_n, the point masses P(S_n = x) at x = -16..0, the float
    P(tau_0 > n) and the killed table at x = 0..10 equal, float for float,
    the reads of the plain full-width propagator.  They must: the paper
    route's nu_3 amplifies read noise about 10^9-fold, so a change of a few
    ulp in these reads (a reordered pairwise sum, say) moves nu_3 of the
    first law here past the benchmark gate's rtol of 1e-6."""
    delta, points = oracle.delta_table(law, N, range(-16, 1))
    got = (delta, np.stack([points[x] for x in range(-16, 1)], axis=1),
           oracle.tau_tail(law, 0, N, mode="float"), oracle.conditioned_table(law, N, 10))
    want = _full_width_reads(law, N)
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)


@settings(max_examples=200, deadline=None)
@given(
    law=_small_laws(),
    N=st.integers(0, 40),
    start=st.integers(-5, 8),
    floor=st.one_of(st.none(), st.integers(-4, 9)),
    mode=st.sampled_from(["float", "exact", "residues"]),
    stack=st.integers(0, 3),
)
def test_widest_frame_is_known_before_the_sweep(law, N, start, floor, mode, stack):
    # stack > 0: a residue sweep of the starts start..start + stack on one
    # state grid, whose frames span every walk of the stack
    exact = {"float": False, "exact": True, "residues": oracle._Residues((8388617, 8388619))}
    starts = range(start, start + stack + 1) if stack and mode == "residues" else start
    guarded = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_guard", guarded.append)
        frames = list(oracle._sweep(law, N, starts, floor, exact[mode]))
    widths = [len(alive) for _, _, alive, _, _ in frames]
    klo, khi = law.support[0], law.support[-1]
    if isinstance(starts, int):
        assert oracle._widest(law, N, start, floor) == max(widths)
        assert guarded == [max(khi - klo + 1, max(widths))]
    else:
        assert len(guarded) == 1 and guarded[0] >= max(widths)


def test_oversized_sweep_refused_before_its_first_frame(lazy):
    # refused when the sweep is made, so a caller may allocate after making it
    with pytest.raises(oracle.ResourceCapExceeded):
        oracle._sweep(lazy, 300_000, 0, 1)
