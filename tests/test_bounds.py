"""Bound formulas, regime classification and the supercritical level."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from phasebound.bounds import (G, G_beta, _moment_gabor,
                               _truncated_gabor_bound_quad, gabor_bound,
                               lambda_root, wavelet_bound)
from phasebound.core import ConstraintSet
from phasebound.errors import (InvalidInputError, RegimeError,
                               UnattainedBoundError)

# pinned before the build with 40-digit arithmetic
G_2_2 = 0.5939941502901619
GB_1_1 = 0.14198995239832093
W_SUBCRIT_P2_B1 = 0.2523132522020160
LAMBDA_D2 = 2.2770384097861832       # e^{(sqrt 7 - 1)/2}
BOUND_D2 = 0.4899348984301024


def test_G_values_and_domain():
    for d in (1, 2, 3, 4):
        assert G(0.0, d) == 0.0
    assert G(1.0, 1) == pytest.approx(1 - math.exp(-1), abs=1e-15)
    assert G(2.0, 2) == pytest.approx(G_2_2, abs=1e-14)
    with pytest.raises(InvalidInputError):
        G(-0.1, 1)
    with pytest.raises(InvalidInputError):
        G(1.0, 0)


def test_G_and_G_beta_domain_edges():
    # a float d used to raise a bare TypeError from math.factorial, d = 171
    # an OverflowError, and a NaN volume came back as NaN
    for d in (2.5, 2.0, 0, 171):
        with pytest.raises(InvalidInputError):
            G(1.0, d)
    for s in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(InvalidInputError):
            G(s, 2)
        with pytest.raises(InvalidInputError):
            G_beta(s, 1.0)
    with pytest.raises(InvalidInputError):
        G_beta(1.0, math.nan)
    assert G(np.int64(2), np.int64(2)) == pytest.approx(G_2_2, abs=1e-14)
    # the limit holds at s = inf; scalars give floats, arrays give arrays
    for d in (1, 2, 8, 170):
        assert G(math.inf, d) == 1.0 and type(G(math.inf, d)) is float
        g = G(np.array([0.0, 1.0, math.inf, 1e308]), d)
        assert isinstance(g, np.ndarray) and g.shape == (4,)
        assert g[0] == 0.0 and g[2] == g[3] == 1.0
    assert G_beta(math.inf, 1.0) == 1.0 and type(G_beta(2.0, 1.0)) is float
    assert type(G(np.float64(2.0), 2)) is float
    assert isinstance(G_beta(np.array([1.0]), 1.0), np.ndarray)


@st.composite
def _dims_and_volumes(draw):
    # s in {0} u [1e-300, 1e6], log-uniform, plus volumes around x = d,
    # where G switches from its series to the Poisson sum
    d = draw(st.integers(1, 8))
    switch = d ** d / math.factorial(d)
    volume = st.one_of(st.just(0.0),
                       st.floats(-300.0, 6.0).map(lambda e: 10.0 ** e),
                       st.floats(-1.0, 1.0).map(lambda u: switch * math.exp(u)))
    return d, draw(st.lists(volume, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(_dims_and_volumes())
def test_G_matches_mpmath(case):
    # G(s, d) = P(d, (d! s)^{1/d}) against 40-digit arithmetic, for array
    # and scalar input
    d, volumes = case
    s = np.array(volumes)
    g = G(s, d)
    for si, gi in zip(s, g):
        with mpmath.workdps(40):
            x = (math.factorial(d) * mpmath.mpf(float(si))) ** (mpmath.mpf(1) / d)
            ref = float(mpmath.gammainc(d, 0, x, regularized=True))
        for val in (gi, G(float(si), d)):
            if ref == 0.0:
                assert val == 0.0
            else:
                assert abs(val - ref) <= 3e-13 * ref


def test_G_matches_defining_integral():
    # independent oracle: adaptive quadrature of the defining integrand
    for d in (1, 2, 3):
        for s in (0.3, 1.0, 2.0, 7.5):
            val, _ = quad(lambda t: math.exp(-(math.factorial(d) * t) ** (1 / d)),
                          0.0, s, epsabs=1e-13)
            assert G(s, d) == pytest.approx(val, abs=1e-12)


def test_G_beta_values_and_properties():
    assert G_beta(0.0, 2.0) == 0.0
    assert G_beta(1.0, 1.0) == pytest.approx(GB_1_1, abs=1e-14)
    s = np.geomspace(1e-3, 1e3, 400)
    g = G_beta(s, 0.7)
    assert np.all(np.diff(g) > 0) and g[-1] < 1.0
    assert G_beta(1e12, 0.7) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(InvalidInputError):
        G_beta(-1.0, 1.0)
    with pytest.raises(InvalidInputError):
        G_beta(1.0, 0.0)


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_gabor_ball_regime():
    r = gabor_bound(ConstraintSet(1.0, 1.0, 1.0, "gabor"))
    assert r.regime == "ball"
    assert r.bound == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert r.lam is None


def test_gabor_gaussian_regime():
    r = gabor_bound(ConstraintSet(2.0, math.inf, 1.0, "gabor"))
    assert r.regime == "gaussian"
    assert r.bound == pytest.approx(2 ** -0.5, abs=1e-12)
    assert r.lam == pytest.approx(math.sqrt(2), abs=1e-12)
    assert r.critical_ratio == 0.0


def test_gabor_truncated_regime_closed_form():
    r = gabor_bound(ConstraintSet(2.0, 1.0, 1.0, "gabor"))
    assert r.regime == "truncated"
    assert r.lam == pytest.approx(math.exp(0.5), abs=1e-12)
    assert r.bound == pytest.approx(1 - math.exp(-0.5) / 2, abs=1e-12)
    assert r.lam > 1.0 and r.critical_ratio > 1.0


def test_gabor_general_dimension_pinned():
    r = gabor_bound(ConstraintSet(2.0, 1.0, 1.0, "gabor", d=2))
    assert r.regime == "truncated"
    assert r.lam == pytest.approx(LAMBDA_D2, abs=1e-10)
    assert r.bound == pytest.approx(BOUND_D2, abs=1e-9)


def test_unattained_supremum_carries_B():
    with pytest.raises(UnattainedBoundError) as err:
        gabor_bound(ConstraintSet(1.0, math.inf, 2.0, "gabor"))
    assert err.value.supremum == 2.0


def test_wavelet_regimes():
    r = wavelet_bound(ConstraintSet(1.0, 1.0, 1.0, "wavelet", beta=1.0))
    assert r.regime == "ball"
    assert r.bound == pytest.approx(GB_1_1, abs=1e-12)

    c = ConstraintSet(2.0, 1.0, 1.0, "wavelet", beta=1.0)
    assert c.sigma == pytest.approx(0.2) and c.alpha == pytest.approx(1 / 3)

    r = wavelet_bound(ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0))
    assert r.regime == "gaussian"
    assert r.bound == pytest.approx(W_SUBCRIT_P2_B1, abs=1e-12)
    assert r.lam == pytest.approx(math.sqrt(5 / (4 * math.pi)), abs=1e-12)

    r = wavelet_bound(ConstraintSet(2.0, 1.0, 2.0, "wavelet", beta=1.0))
    assert r.regime == "truncated" and r.lam > 1.0


def test_transform_tag_checked():
    with pytest.raises(InvalidInputError):
        gabor_bound(ConstraintSet(2.0, 1.0, 1.0, "wavelet", beta=1.0))
    with pytest.raises(InvalidInputError):
        wavelet_bound(ConstraintSet(2.0, 1.0, 1.0, "gabor"))


# ---------------------------------------------------------------------------
# supercritical level lambda
# ---------------------------------------------------------------------------

def test_lambda_root_d1_closed_form():
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor")
    assert lambda_root(c) == pytest.approx(math.exp(0.5), abs=1e-12)


def test_lambda_root_d2_hand_solved():
    # p=2, d=2: the saturation equation is 2 x^2 + 2 x - 3 = 0 in x = log lam
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor", d=2)
    assert lambda_root(c) == pytest.approx(math.exp((math.sqrt(7) - 1) / 2), abs=1e-10)


def test_lambda_root_regime_contract():
    with pytest.raises(RegimeError):
        lambda_root(ConstraintSet(2.0, math.inf, 1.0, "gabor"))
    with pytest.raises(RegimeError):
        lambda_root(ConstraintSet(1.0, 1.0, 1.0, "gabor"))


def test_boundary_constraint_gives_lambda_A():
    # exact float tie (p = d = 2, B = A/2 gives ratio 0.25 == kappa^2):
    # the tie is classified gaussian and lam = A
    r = gabor_bound(ConstraintSet(2.0, 1.0, 0.5, "gabor", d=2))
    assert r.regime == "gaussian"
    assert r.lam == pytest.approx(1.0, rel=1e-14)
    # near-ties land within round-off of lam = A whichever side they fall on
    for p, d in ((2.0, 1), (1.5, 2), (3.0, 1)):
        kappa = (p - 1) / p
        A = 1.3
        c = ConstraintSet(p, A, A * kappa ** (d / p), "gabor", d=d)
        assert gabor_bound(c).lam == pytest.approx(A, rel=1e-9)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_regime_continuity_gabor():
    for p in (1.5, 2.0, 3.0, 10.0):
        for d in (1, 2, 3):
            kappa = (p - 1) / p
            c = ConstraintSet(p, 1.0, kappa ** (d / p), "gabor", d=d)
            gaussian = kappa ** (d * kappa) * c.B
            truncated = _truncated_gabor_bound_quad(c, c.A)
            assert abs(gaussian - truncated) < 1e-12
            if d == 1:
                assert abs(gaussian - kappa) < 1e-12


def test_regime_continuity_wavelet():
    for p in (1.5, 2.0, 3.0, 10.0):
        for beta in (0.5, 1.0, 2.0, 5.0):
            sigma = (p - 1) / (2 * beta * p + 1)
            alpha = (p - 1) / (2 * beta + 1)
            B = (4 * math.pi * sigma) ** (1 / p)
            gaussian = 2 * beta / (4 * math.pi) ** (1 / p) * sigma ** ((p - 1) / p) * B
            truncated = 1 - p ** (2 * beta) * (sigma / alpha) ** (2 * beta + 1) \
                * (1 + B ** p / (4 * math.pi)) ** (-2 * beta)
            assert abs(gaussian - truncated) < 1e-12
            assert abs(gaussian - 2 * beta * sigma) < 1e-12
            # whichever side of the float tie the threshold falls on, the
            # level and bound are continuous there
            r = wavelet_bound(ConstraintSet(p, 1.0, B, "wavelet", beta=beta))
            assert r.lam == pytest.approx(1.0, rel=1e-12)
            assert r.bound == pytest.approx(2 * beta * sigma, rel=1e-12)


def test_d1_truncated_closed_form_vs_quadrature():
    for (p, A, B) in ((2.0, 1.0, 1.0), (1.5, 0.7, 1.1), (3.0, 1.2, 1.9), (1.2, 1.0, 1.4)):
        c = ConstraintSet(p, A, B, "gabor")
        r = gabor_bound(c)
        if r.regime != "truncated":
            continue
        assert r.bound == pytest.approx(_truncated_gabor_bound_quad(c, r.lam), abs=1e-10)
        assert r.lam == pytest.approx(lambda_root(c), rel=1e-10)


def test_report_lambda_regime_relation():
    # lambda exceeds A exactly in the truncated regime; at most A otherwise
    rng = np.random.default_rng(5)
    for _ in range(60):
        p = float(rng.uniform(1.05, 4.0))
        A = float(rng.uniform(0.4, 2.0))
        B = float(rng.uniform(0.3, 2.0))
        for c, fn in ((ConstraintSet(p, A, B, "gabor", d=int(rng.integers(1, 3))), gabor_bound),
                      (ConstraintSet(p, A, B, "wavelet",
                                     beta=float(rng.uniform(0.4, 3.0))), wavelet_bound)):
            r = fn(c)
            if r.regime == "truncated":
                assert r.lam > c.A
            elif r.regime == "gaussian":
                assert r.lam <= c.A * (1 + 1e-14)
            assert r.bound <= c.A + 1e-12


def test_monotonicity_and_dominance():
    rng = np.random.default_rng(1)
    for _ in range(40):
        p = float(rng.uniform(1.0, 5.0))
        A = float(rng.uniform(0.3, 2.5))
        B = float(rng.uniform(0.3, 2.5))
        d = int(rng.integers(1, 4))
        c = ConstraintSet(p, A, B, "gabor", d=d)
        bound = gabor_bound(c).bound
        assert bound <= A + 1e-12
        if p > 1:
            kappa = (p - 1) / p
            assert bound <= kappa ** (d * kappa) * B + 1e-10
        # strictly increasing in B (until float saturation at A), nondecreasing in A
        bigger = gabor_bound(ConstraintSet(p, A, B * 1.1, "gabor", d=d)).bound
        if bound < A * (1.0 - 1e-12):
            assert bigger > bound
        else:
            assert bigger >= bound
        assert gabor_bound(ConstraintSet(p, A * 1.1, B, "gabor", d=d)).bound >= bound - 1e-12


# ---------------------------------------------------------------------------
# supercritical closed form against the quadrature oracles
# ---------------------------------------------------------------------------

def test_huge_b_over_a_gives_finite_truncated_bound():
    for d in (1, 2):
        c = ConstraintSet(2.0, 1e-150, 1e150, "gabor", d=d)
        assert c.b_over_a_pow_p == math.inf
        r = gabor_bound(c)
        assert r.regime == "truncated"
        assert 0.0 < r.bound <= c.A


def test_huge_b_over_a_gives_finite_truncated_wavelet_bound():
    c = ConstraintSet(2.0, 1e-200, 1e200, "wavelet")
    assert c.b_over_a_pow_p == math.inf
    r = wavelet_bound(c)
    assert r.regime == "truncated"
    assert math.isfinite(r.bound) and 0.0 < r.bound <= c.A
    # the level stays finite where only (B/A)^p overflows: sigma = 3 and
    # alpha = 7.5, so lam = (4 / q)^{-1/alpha} with q = 1 + 1e800 / (4 pi)
    r = wavelet_bound(ConstraintSet(10.0, 1.0, 1e80, "wavelet", beta=0.1))
    assert math.isfinite(r.lam)
    assert math.log(r.lam) == pytest.approx(
        (800 * math.log(10) - math.log(4 * math.pi) - math.log(4.0)) / 7.5,
        rel=1e-12)


def test_bound_near_p_one_general_dimension():
    # 7-digit values of the 30-digit mpmath reference; lam overflows here
    for d, want in ((2, 0.5941819), (3, 0.4012965)):
        r = gabor_bound(ConstraintSet(1.001, 1.0, 2.0, "gabor", d=d))
        assert r.regime == "truncated" and math.isinf(r.lam)
        assert abs(r.bound - want) <= 1e-6
    # the bound decreases to the ball value A G(B/A, d) linearly in p - 1
    for d in (1, 2, 3):
        for eps in (1e-5, 1e-7, 1e-9):
            gap = gabor_bound(ConstraintSet(1.0 + eps, 1.5, 2.0, "gabor", d=d)).bound \
                - 1.5 * G(2.0 / 1.5, d)
            assert 0.0 < gap <= eps


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), p=st.floats(1.01, 50.0),
       log_ratio=st.floats(0.0, math.log(1e4), exclude_min=True),
       A=st.floats(0.1, 10.0))
def test_closed_form_matches_quadrature_oracles(d, p, log_ratio, A):
    kappa = (p - 1.0) / p
    B = A * math.exp((log_ratio + d * math.log(kappa)) / p)
    c = ConstraintSet(p, A, B, "gabor", d=d)
    r = gabor_bound(c)
    assume(r.regime == "truncated" and math.log(r.lam) < 700.0)
    assert abs(_moment_gabor(r.lam, c) - B ** p) / B ** p <= 1e-10
    assert abs(r.bound - _truncated_gabor_bound_quad(c, r.lam)) <= 1e-10
