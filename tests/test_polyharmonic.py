"""V_j ladder, killed operator, polyharmonicity defects, and polynomial
tail structure."""

import numpy as np
import pytest

from fluctuator import oracle, polyharmonic as ph

X_MAX = 24
WIN = (1, 15)


@pytest.fixture(scope="module")
def lad_lazy(lazy):
    return ph.v_ladder(lazy, x_max=X_MAX, J=2, N=1 << 12)


@pytest.fixture(scope="module")
def lad_skewed(skewed):
    return ph.v_ladder(skewed, x_max=X_MAX, J=2, N=1 << 12)


def test_v1_lazy_is_linear(lad_lazy):
    # lazy L: V_1(x) = 2x exactly
    np.testing.assert_allclose(
        lad_lazy[1][1:], 2.0 * np.arange(1, X_MAX + 1), rtol=1e-10
    )


def test_v_at_zero_matches_nu(lad_lazy, lad_skewed):
    for lad in (lad_lazy, lad_skewed):
        for j in (1, 2):
            assert lad[j][0] == pytest.approx(lad.nu[j - 1], rel=1e-9, abs=1e-12)


def test_v1_harmonic(lazy, skewed, lad_lazy, lad_skewed):
    assert ph.polyharm_defect(lazy, lad_lazy[1], 1, WIN) < 1e-9
    assert ph.polyharm_defect(skewed, lad_skewed[1], 1, WIN) < 1e-9


def test_v2_biharmonic_and_identity(lazy, lad_lazy):
    sign, resid = ph.v2_identity_residual(lazy, lad_lazy, WIN)
    assert resid < 1e-2
    d2 = ph.polyharm_defect(lazy, lad_lazy[2], 2, WIN)
    scale = np.abs(lad_lazy[2][WIN[0] : WIN[1] + 1]).max()
    assert d2 / scale < 1e-4


def test_v1_matches_dp_ratio(skewed, lad_skewed):
    from fluctuator import basis

    n = 1 << 12
    for x in (1, 3, 6):
        tail = oracle.tau_tail(skewed, x, n, mode="float")
        ratio = tail[n] / basis.a_float(1, n)[n]
        assert lad_skewed[1][x] == pytest.approx(ratio, rel=5e-3)


def test_leftcont_closed_form_agrees(skewed, lad_skewed):
    lc = ph.v_leftcont(skewed, 10, 2)
    np.testing.assert_allclose(lc[1][1:], lad_skewed[1][1:11], rtol=1e-6)
    np.testing.assert_allclose(lc[2][1:], lad_skewed[2][1:11], rtol=1e-3)


def test_leftcont_requires_leftcont(skewed):
    with pytest.raises(oracle.NotLeftContinuous):
        ph.v_leftcont(skewed.reverse(), 5, 1)


def test_apply_killed_absorbs_boundary(lazy):
    op = ph.KilledOperator(lazy)
    f = np.arange(10, dtype=float)
    # P f(1) = f(2)/4 + f(1)/2 + 0 (state 0 killed)
    assert ph.apply_killed(op, f, 1) == pytest.approx(2 / 4 + 1 / 2)


def test_defect_needs_headroom(lazy):
    with pytest.raises(ph.DomainGap):
        ph.polyharm_defect(lazy, np.ones(5), 2, (1, 4))


def test_poly_tail_fit_synthetic():
    xs = np.arange(1, 41, dtype=float)
    p = 0.3 + 1.7 * xs  # degree 1
    fit = ph.poly_tail_fit(xs, p + np.exp(-xs), degree=1)
    assert fit.passed
    np.testing.assert_allclose(fit.coefficients, [0.3, 1.7], rtol=1e-6, atol=1e-6)


def test_poly_tail_fit_rejects_nonpolynomial():
    xs = np.arange(1, 41, dtype=float)
    fit = ph.poly_tail_fit(xs, np.sqrt(xs), degree=1)
    assert not fit.passed


def test_poly_tail_fit_grid_guard():
    with pytest.raises(ph.GridTooShort):
        ph.poly_tail_fit(np.arange(1, 8), np.arange(1, 8, dtype=float), degree=3)


def test_v_ladder_shares_the_free_sweep(monkeypatch, skewed):
    # one free sweep of the law: Delta_n and, mirrored, the reversed walk's
    # point masses; the ladder heights are a closed form
    from fluctuator import conditioned, tau0

    sweep, calls = oracle._sweep, []

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(oracle, "_sweep", counted)
    lad = ph.v_ladder(skewed, x_max=10, J=2, N=512)
    assert len(calls) == 1
    assert lad.nu == tau0.tau0_coeffs(skewed, N=512).nu[:2]

    make_workspace = conditioned.make_workspace

    def unshared(law, x_max, N, r=6, traces=None):
        return make_workspace(law, x_max, N, r)

    monkeypatch.setattr(conditioned, "make_workspace", unshared)
    calls.clear()
    own = ph.v_ladder(skewed, x_max=10, J=2, N=512)
    assert len(calls) == 2  # the reversed walk swept on its own
    np.testing.assert_allclose(lad.V, own.V, rtol=1e-9, atol=0)
