"""Bound formulas, regime classification and the supercritical level."""
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from phasebound.bounds import G, G_beta, gabor_bound, lambda_root, wavelet_bound
from phasebound.core import RadialProfile, distribution_bound
from phasebound.errors import (InvalidInputError, RegimeError,
                               UnattainedBoundError)
from phasebound.scalar import ConstraintSet
from phasebound.varprob import solve_closed_form

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
    for beta in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            G_beta(1.0, beta)
    # 2 beta overflows here; beta log1p(0) = 0 does not
    assert G_beta(0.0, 1e308) == 0.0 and G_beta(np.array([0.0]), 1e308)[0] == 0.0
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


def test_G_beta_keeps_precision_at_small_beta_and_volume():
    # 1 - (1 + s/4pi)^{-2 beta} cancelled: a relative error of 1.7e-6 at
    # beta = 1e-10, and 0 in place of 1.6e-21 at s = 1e-20, which the p = 1
    # wavelet bound passed on; the reference is that form in 60 digits
    for s, beta in ((1.0, 1e-10), (1e-20, 1.0)):
        with mpmath.workdps(60):
            ref = float(1 - (1 + mpmath.mpf(s) / (4 * mpmath.pi)) ** (-2 * mpmath.mpf(beta)))
        ball = wavelet_bound(ConstraintSet(1.0, 1.0, s, "wavelet", beta=beta)).bound
        for val in (G_beta(s, beta), G_beta(np.array([s]), beta)[0], ball):
            assert val == pytest.approx(ref, rel=4e-16, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 170),
       s=st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)),
       log10_beta=st.floats(-300.0, 300.0))
def test_scalar_and_array_paths_agree_bitwise(d, s, log10_beta):
    # numpy's own exp, expm1, log1p and power round differently from libm
    # for some arguments on some CPUs; the array path must not
    for f, arg in ((G, d), (G_beta, 10.0 ** log10_beta)):
        ref = f(s, arg)
        assert type(ref) is float
        values = [f(np.float64(s), arg), f(np.array(s), arg), f(np.array([s]), arg)[0]]
        assert {float(v).hex() for v in values} == {ref.hex()}
        k = int(s)
        assert f(k, arg).hex() == float(f(np.array([float(k)]), arg)[0]).hex()


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_gabor_ball_regime():
    r = gabor_bound(ConstraintSet(1.0, 1.0, 1.0, "gabor"))
    assert r.regime == "ball"
    assert r.bound == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert r.lam is None


def test_gabor_ball_regime_past_d_170():
    # G's d! leaves the floats past d = 170, so p = 1 raised "dimension must
    # be an integer in [1, 170]" where the other regimes take any d
    def ball_mp(ratio, d):
        with mpmath.workdps(50):
            x = (mpmath.factorial(d) * mpmath.mpf(ratio)) ** (mpmath.mpf(1) / d)
            return float(mpmath.gammainc(d, 0, x, regularized=True))

    # 50-digit references at B = A
    for A, B, d, ref in ((1.0, 1.0, 171, 2.0814332769403149e-28),
                         (1.0, 1.0, 1000, 5.3915858780930963e-161),
                         (3.0, 3e5, 500, 3.0 * ball_mp(1e5, 500)),
                         (1e-200, 1e100, 300, 1e-200 * ball_mp(1e300, 300))):
        r = gabor_bound(ConstraintSet(1.0, A, B, "gabor", d=d))
        assert r.regime == "ball" and r.lam is None
        assert r.bound == pytest.approx(ref, rel=1e-10, abs=0.0)
    # about 1e-336 / A at d = 2100: no double carries it
    with pytest.raises(InvalidInputError):
        gabor_bound(ConstraintSet(1.0, 1.0, 1.0, "gabor", d=2100))


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
            # at lam = A the truncated extremal is the uncapped Gaussian
            truncated = distribution_bound(RadialProfile.gaussian(c.A, p - 1.0, dim=d),
                                           lambda s: G(s, d))
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
        assert r.bound == pytest.approx(solve_closed_form(c).objective_value, abs=1e-10)
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
    sol = solve_closed_form(c)
    assert abs(sol.constraint_value - B ** p) / B ** p <= 1e-10
    assert abs(r.bound - sol.objective_value) <= 1e-10


# ---------------------------------------------------------------------------
# large d and large beta: the truncated closed forms in double precision
# ---------------------------------------------------------------------------

def _gabor_closed_form_mp(p, A, B, d):
    """A [1 - e^{-kappa x} / p sum_{j<d} kappa^j e_j(x)] with e_d(x) = (B/A)^p / kappa^d,
    in mpmath with 50 digits left over after the bracket's cancellation."""
    with mpmath.workdps(50 + d // 2):
        p, A, B = mpmath.mpf(p), mpmath.mpf(A), mpmath.mpf(B)
        kappa = (p - 1) / p

        def partial_sums(x, n):
            # e_0(x) .. e_n(x)
            term, sums = mpmath.mpf(1), [mpmath.mpf(1)]
            for i in range(1, n + 1):
                term *= x / i
                sums.append(sums[-1] + term)
            return sums

        log_target = p * mpmath.log(B / A) - d * mpmath.log(kappa)
        x = mpmath.findroot(lambda x: mpmath.log(partial_sums(x, d)[-1]) - log_target,
                            log_target)
        total = sum(kappa ** j * e for j, e in enumerate(partial_sums(x, d - 1)))
        return A * (1 - mpmath.exp(-kappa * x) / p * total)


# (d, log of the critical ratio (B/A)^p / kappa^d) at p = 2, A = 1; d log 2 is B = A.
# The last three put kappa x past d (819, 1031 and 1117), where P(d, kappa x)
# takes its Poisson form
@pytest.mark.parametrize("d, log_ratio", [(60, 60 * math.log(2)), (100, 100 * math.log(2)),
                                          (171, 171 * math.log(2)), (200, 200 * math.log(2)),
                                          (300, 5.0), (500, 20.0),
                                          (800, 1370.0), (1000, 1720.0), (1000, 1800.0)])
def test_gabor_bound_large_dimension(d, log_ratio):
    # the bracket kappa^d - (1 - kappa) sum_j kappa^j expm1(...) cancelled to
    # noise at B = A (-9.5e-16 at d = 100, -1.2e-15 at d = 171), and log e_d
    # overflowed into NaN at d = 300 and 500; a Poisson sum capped at 709,
    # sound only for d <= 170, gave 1.0 at d = 800 and 1000 against 0.77 and 0.84
    B = math.exp((log_ratio + d * math.log(0.5)) / 2)
    r = gabor_bound(ConstraintSet(2.0, 1.0, B, "gabor", d=d))
    assert r.regime == "truncated" and r.bound > 0.0
    assert r.bound == pytest.approx(float(_gabor_closed_form_mp(2.0, 1.0, B, d)),
                                    rel=1e-10, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 1000), p=st.floats(1.001, 10.0), log_b=st.floats(-600.0, 600.0))
def test_gabor_bound_truncated_domain(d, p, log_b):
    # before the positive bracket, 365 of 2140 grid points over this domain
    # gave a bound that was NaN or outside (0, A]
    try:
        r = gabor_bound(ConstraintSet(p, 1.0, math.exp(log_b), "gabor", d=d))
    except InvalidInputError:  # below the normal doubles
        return
    assume(r.regime == "truncated")
    assert 0.0 < r.bound <= 1.0


def test_gabor_bound_below_normal_doubles_raises():
    # about 2^-1500 at d = 3000: no double carries it
    with pytest.raises(InvalidInputError):
        gabor_bound(ConstraintSet(2.0, 1.0, 1.0, "gabor", d=3000))


def test_gabor_gaussian_bound_at_large_dimension():
    # lam = B kappa^{-d/p} raised a bare OverflowError at d = 2100, and the
    # factor kappa^{d kappa} underflowed to a bound of 0 at d = 10000
    def bound(p, B, d):
        return gabor_bound(ConstraintSet(p, math.inf, B, "gabor", d=d))

    r = bound(2.0, 1.0, 2000)
    assert r.regime == "gaussian"
    assert r.bound == 2.0 ** -1000 and r.lam == 2.0 ** 1000   # kappa = 1/2: exact
    for d in (2100, 2200):
        with pytest.raises(InvalidInputError):
            bound(2.0, 1.0, d)
    # 0.9^9000 is below the normal doubles, the bound e^300 0.9^9000 is not
    r = bound(10.0, math.exp(300.0), 10000)
    kappa = mpmath.mpf(9) / 10
    assert r.bound == pytest.approx(float(kappa ** 9000 * mpmath.e ** 300), rel=1e-12, abs=0.0)
    assert r.lam == pytest.approx(float(kappa ** -1000 * mpmath.e ** 300), rel=1e-12)


@pytest.mark.parametrize("d", [1, 3])
def test_gabor_bound_tiny_scale(d):
    # the precision guard is on the bracket bound / A, not on the scale A: a
    # subnormal bound from a tiny A is A times a bracket known to full precision
    unit = gabor_bound(ConstraintSet(2.0, 1.0, 1.0, "gabor", d=d)).bound
    r = gabor_bound(ConstraintSet(2.0, 1e-308, 1e-308, "gabor", d=d))
    assert r.regime == "truncated" and r.bound < sys.float_info.min
    assert r.bound == pytest.approx(1e-308 * unit, rel=1e-12)


def _wavelet_closed_form_mp(p, A, B, beta):
    """A [1 - p^{2 beta} (sigma/alpha)^{2 beta + 1} (1 + (B/A)^p / 4 pi)^{-2 beta}],
    with enough digits that 1 + sigma is exact."""
    with mpmath.workdps(50 + int(math.log10(beta))):
        p, A, B, beta = (mpmath.mpf(v) for v in (p, A, B, beta))
        sigma = (p - 1) / (2 * beta * p + 1)
        alpha = (p - 1) / (2 * beta + 1)
        q = 1 + (B / A) ** p / (4 * mpmath.pi)
        return A * (1 - p ** (2 * beta) * (sigma / alpha) ** (2 * beta + 1) * q ** (-2 * beta))


@pytest.mark.parametrize("beta", [400.0, 1e3, 1e4, 1e300])
def test_wavelet_bound_large_beta(beta):
    # p ** (2 beta) overflowed from beta = 1e3 on, a bare OverflowError
    for p in (1.5, 2.0, 7.0):
        sigma = ConstraintSet(p, 1.0, 1.0, "wavelet", beta=beta).sigma
        # (B/A)^p at 1.0001, 2 and 10 times the threshold 4 pi sigma, then B = A
        for B in [(f * 4 * math.pi * sigma) ** (1 / p) for f in (1.0001, 2.0, 10.0)] + [1.0]:
            r = wavelet_bound(ConstraintSet(p, 1.0, B, "wavelet", beta=beta))
            assert r.regime == "truncated" and 0.0 <= r.bound <= 1.0
            assert r.bound == pytest.approx(float(_wavelet_closed_form_mp(p, 1.0, B, beta)),
                                            rel=1e-13, abs=0.0)
    # 2 beta p overflows, so sigma is 0 and the regime test has nothing to divide by
    with pytest.raises(InvalidInputError):
        wavelet_bound(ConstraintSet(2.0, 1.0, 1.0, "wavelet", beta=1.7e308))


@settings(max_examples=200, deadline=None)
@given(log10_beta=st.floats(-2.0, 300.0), p=st.floats(1.001, 10.0),
       log10_b=st.floats(-150.0, 150.0))
def test_wavelet_bound_domain(log10_beta, p, log10_b):
    c = ConstraintSet(p, 1.0, 10.0 ** log10_b, "wavelet", beta=10.0 ** log10_beta)
    r = wavelet_bound(c)
    assert math.isfinite(r.bound) and r.bound > 0.0
    assert r.regime == "gaussian" or r.bound <= 1.0
