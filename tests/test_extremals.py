"""Extremal weights and signals attain the sharp constants."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from phasebound import cli
from phasebound.bounds import gabor_bound, wavelet_bound
from phasebound.core import RadialProfile, lp_norm
from phasebound.errors import InvalidInputError, UnattainedBoundError
from phasebound.extremals import (extremal_signal, extremal_signal_wavelet,
                                  extremal_weight_gabor,
                                  extremal_weight_wavelet,
                                  wavelet_disc_coefficients)
from phasebound.gabor import assemble_operator, expectation, radial_eigenvalues
from phasebound.scalar import ConstraintSet
from phasebound.varprob import solve_kkt_oracle
from phasebound.verify import thresholds
from phasebound.wavelet import bergman_radial_eigenvalues

GABOR_CASES = [
    ConstraintSet(1.0, 1.0, 1.0, "gabor"),
    ConstraintSet(2.0, math.inf, 1.0, "gabor"),
    ConstraintSet(2.0, 1.0, 1.0, "gabor"),
    ConstraintSet(1.5, 0.8, 1.1, "gabor"),
    ConstraintSet(3.0, 2.0, 1.0, "gabor"),
]
WAVELET_CASES = [
    ConstraintSet(1.0, 1.0, 1.0, "wavelet", beta=1.0),
    ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0),
    ConstraintSet(2.0, 1.0, 2.0, "wavelet", beta=1.0),
    ConstraintSet(3.0, 1.0, 0.8, "wavelet", beta=0.5),
    ConstraintSet(1.0, 1.0, 1.0, "wavelet", beta=2.0),
]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_gabor_weight_shapes():
    w = extremal_weight_gabor(ConstraintSet(1.0, 1.0, 1.0, "gabor"))
    assert w.kind == "indicator"
    assert math.pi * w.edge ** 2 == pytest.approx(1.0)

    w = extremal_weight_gabor(ConstraintSet(2.0, math.inf, 1.0, "gabor"))
    assert w.kind == "family"
    assert w.amplitude == pytest.approx(math.sqrt(2))
    assert w(np.array([0.7]))[0] == pytest.approx(math.sqrt(2) * math.exp(-math.pi * 0.49))

    w = extremal_weight_gabor(ConstraintSet(2.0, 1.0, 1.0, "gabor"))
    assert w.kind == "truncated"
    # truncation radius r0 solves lam e^{-pi r0^2} = A, giving r0^2 = 1/(2 pi)
    r0 = math.sqrt(1.0 / (2.0 * math.pi))
    assert w(np.array([r0 * 0.999]))[0] == pytest.approx(1.0)
    assert w(np.array([r0 * 1.01]))[0] < 1.0


def test_ball_weight_past_the_factorial_doubles():
    # the ball's radius took d! as a float and raised OverflowError from
    # d = 171 on (a traceback from `extremal --p 1 --d 171`); it also
    # overflowed where d! B/A passes the doubles at d <= 170
    import mpmath
    for d, volume in ((171, 1.0), (400, 3.0), (170, 1e300)):
        w = extremal_weight_gabor(ConstraintSet(1.0, 1.0, volume, "gabor", d=d))
        with mpmath.workdps(40):
            ref = mpmath.sqrt((mpmath.factorial(d) * mpmath.mpf(volume)) ** (mpmath.mpf(1) / d)
                              / mpmath.pi)
        assert w.kind == "indicator" and w.edge == pytest.approx(float(ref), rel=1e-14)
        # the profile's own constructor takes any integer dimension
        ball = RadialProfile.ball(1.0, volume, dim=np.int64(d))
        assert ball.edge == w.edge


@pytest.mark.parametrize("d", [171, 200])
def test_plane_extremals_past_the_factorial_doubles(d):
    # gabor_bound serves d > 170 in logs, but the profiles took d! as a
    # float: the ball's L^1 norm and the Gaussian's mu raised a bare
    # OverflowError, and the truncated Gaussian's mu warned 'overflow'.  The
    # volume (pi r^2)^d / d! is now taken in logs past d = 170
    for p, A, B in ((1.0, 1.0, 2.0), (1.5, math.inf, 1.0), (2.0, 1.0, 1.0)):
        w = extremal_weight_gabor(ConstraintSet(p, A, B, "gabor", d=d))
        assert w.lp_norm(p) == pytest.approx(B, rel=1e-12, abs=0.0), (p, A, B)
        mu = w.mu(0.5 * w.ess_sup())
        assert np.isfinite(mu) and mu >= 0.0, (p, A, B)
        if w.kind == "indicator":
            assert mu == pytest.approx(B / A, rel=1e-12)


def test_gabor_weight_norm_and_sup_saturation():
    for c in GABOR_CASES:
        w = extremal_weight_gabor(c)
        assert lp_norm(w, c.p) == pytest.approx(c.B, abs=1e-8), c
        rep = gabor_bound(c)
        if rep.regime == "gaussian":
            assert w.ess_sup() == pytest.approx(rep.lam)
            assert w.ess_sup() <= c.A + 1e-12
        else:
            assert w.ess_sup() == pytest.approx(c.A)


def test_gabor_weight_norm_with_peak_power_beyond_float_range():
    # lam = e^{500} is finite but lam^p = e^{1500} is not
    c = ConstraintSet(3.0, 1.0, 10.0, "gabor", d=1)
    w = extremal_weight_gabor(c)
    assert math.isfinite(w.amplitude) and c.p * math.log(w.amplitude) > 710.0
    assert lp_norm(w, c.p) == pytest.approx(10.0, rel=1e-10)


def _maximizer(c):
    """The variational maximizer, computed without the extremal weight: the
    constant B/A at p = 1, the multiplier oracle otherwise."""
    if c.p == 1:
        return lambda t: np.full_like(t, c.B / c.A)
    return solve_kkt_oracle(c).u


def test_gabor_weight_distribution_matches_maximizer():
    for c in GABOR_CASES:
        w = extremal_weight_gabor(c)
        ts = thresholds(w, 400)
        ts = ts[ts < w.ess_sup() * (1 - 1e-12)]
        assert np.max(np.abs(w.mu(ts) - _maximizer(c)(ts))) < 1e-8, c


def test_gabor_weight_spectral_saturation():
    for c in GABOR_CASES:
        w = extremal_weight_gabor(c)
        lam0 = radial_eigenvalues(w, 8).eigenvalues[0]
        assert abs(lam0 - gabor_bound(c).bound) < 1e-8, c


def test_gabor_weight_higher_dimension():
    # profiles carry d symbolically: norms and distribution functions only
    for c in (ConstraintSet(2.0, 1.0, 1.0, "gabor", d=2),
              ConstraintSet(2.0, math.inf, 1.0, "gabor", d=3),
              ConstraintSet(1.0, 1.0, 1.0, "gabor", d=2)):
        w = extremal_weight_gabor(c)
        assert w.setting.d == c.d
        assert lp_norm(w, c.p) == pytest.approx(c.B, abs=1e-8), c
        ts = thresholds(w, 300)
        ts = ts[ts < w.ess_sup() * (1 - 1e-12)]
        assert np.max(np.abs(w.mu(ts) - _maximizer(c)(ts))) < 1e-8, c


# at the regime tie the bounds report a truncated regime with lam at most A:
# lam == A for gabor (verify's "boundary lambda = A") and for wavelet, whose B
# is the smallest double with a truncated regime (one ulp above it, lam is
# A (1 + 2e-16), its exact value to rounding)
TIE_CASES = [
    (ConstraintSet(2.0, 1.0, 0.7071067811865476, "gabor"), extremal_weight_gabor,
     ["--p", "2", "--A", "1", "--B", "0.7071067811865476"]),
    (ConstraintSet(2.0, 1.0, 1.5853309190424045, "wavelet", beta=1.0), extremal_weight_wavelet,
     ["--transform", "wavelet", "--p", "2", "--beta", "1", "--A", "1",
      "--B", "1.5853309190424045"]),
]


@pytest.mark.parametrize("c, extremal, argv", TIE_CASES)
def test_extremal_weight_at_regime_tie(c, extremal, argv, tmp_path, capsys):
    report = (gabor_bound if c.transform == "gabor" else wavelet_bound)(c)
    assert report.regime == "truncated" and report.lam <= c.A
    _check_tie_weight(c, extremal, argv, tmp_path, capsys)


def test_extremal_weight_next_to_regime_tie(tmp_path, capsys):
    # one ulp above the smallest truncated wavelet B, lam rounds to A (1 + 2e-16);
    # the profile still caps at A and carries the L^p norm B
    c = ConstraintSet(2.0, 1.0, 1.5853309190424048, "wavelet", beta=1.0)
    report = wavelet_bound(c)
    assert report.regime == "truncated" and report.lam == pytest.approx(c.A, rel=1e-15)
    _check_tie_weight(c, extremal_weight_wavelet,
                      ["--transform", "wavelet", "--p", "2", "--beta", "1", "--A", "1",
                       "--B", "1.5853309190424048"], tmp_path, capsys)


def _check_tie_weight(c, extremal, argv, tmp_path, capsys):
    w = extremal(c)
    assert w.ess_sup() <= c.A
    assert abs(lp_norm(w, c.p) - c.B) <= 1e-12
    assert cli.main(["extremal", *argv, "--out", str(tmp_path / "w.csv")]) == 0
    capsys.readouterr()


def test_wavelet_weight_shapes_and_saturation():
    c = ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0)
    w = extremal_weight_wavelet(c)
    assert w.kind == "family"
    assert w.amplitude == pytest.approx(math.sqrt(5 / (4 * math.pi)), abs=1e-12)
    assert w.shape == pytest.approx(3.0)  # 1/alpha at p=2, beta=1

    for c in WAVELET_CASES:
        w = extremal_weight_wavelet(c)
        lam0 = bergman_radial_eigenvalues(w, c.beta, 8).eigenvalues[0]
        assert abs(lam0 - wavelet_bound(c).bound) < 1e-10, c
        assert w.lp_norm(c.p) == pytest.approx(c.B, abs=1e-8), c


def test_wavelet_supercritical_example():
    # p=2, beta=1, A=1, B=2: level from the closed form, capped profile,
    # L^p checked against an independent quadrature
    c = ConstraintSet(2.0, 1.0, 2.0, "wavelet", beta=1.0)
    w = extremal_weight_wavelet(c)
    assert w.kind == "truncated"
    assert w.amplitude == pytest.approx(1.3258939490229079, abs=1e-12)
    assert w(np.array([0.0]))[0] == 1.0  # capped at A near the center
    xstar = 1.0 - (1.0 / w.amplitude) ** (1.0 / w.shape)

    def dens(x):
        return float(w(np.atleast_1d(x))[0]) ** 2 * 4 * math.pi / (1 - x) ** 2

    val, _ = quad(dens, 0.0, 1.0 - 1e-13, points=[xstar], limit=300)
    assert val ** 0.5 == pytest.approx(2.0, rel=1e-9)


def test_no_extremal_for_p1_without_sup():
    # the rejection happens at constraint construction time, so no extremal
    # can even be requested for p = 1 with A = inf
    with pytest.raises(UnattainedBoundError) as err:
        ConstraintSet(1.0, math.inf, 1.7, "gabor")
    assert err.value.supremum == 1.7


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------

def test_extremal_signal_is_window_at_origin():
    f = extremal_signal(0.0, 0.0, 1.0)
    t, v = f.time_samples()
    from phasebound.gabor import gaussian_window
    assert np.max(np.abs(v - gaussian_window(t))) < 1e-15
    assert f.l2_norm() == 1.0
    with pytest.raises(InvalidInputError):
        extremal_signal(0.0, 0.0, 2.0)


def test_matched_pair_saturates_gabor():
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor")
    z0 = (0.7, -0.4)
    M = assemble_operator(extremal_weight_gabor(c, center=z0), 48)
    v = extremal_signal(*z0, phase=np.exp(0.3j)).hermite_coefficients(48)
    val = abs(expectation(M, v))
    assert val == pytest.approx(gabor_bound(c).bound, abs=1e-5)


def test_mismatched_centers_fall_short():
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor")
    z0 = (0.7, -0.4)
    M = assemble_operator(extremal_weight_gabor(c, center=z0), 48)
    v = extremal_signal(z0[0] + 2.0, z0[1]).hermite_coefficients(48)
    assert gabor_bound(c).bound - abs(expectation(M, v)) > 0.05


def test_wavelet_signal_normalization():
    for (x0, y0) in ((0.0, 1.0), (2.0, 0.4), (-1.5, 3.0)):
        f = extremal_signal_wavelet(x0, y0, beta=1.0)
        assert f.l2_norm() == pytest.approx(1.0, abs=1e-10)
    # (0, 1) is the normalized analyzing wavelet itself
    from phasebound.wavelet import cauchy_wavelet
    f = extremal_signal_wavelet(0.0, 1.0, beta=1.0)
    psi = cauchy_wavelet(1.0)
    scale = math.sqrt(2 * math.pi / 1.0)
    assert np.max(np.abs(f.values - scale * psi.values)) < 1e-12
    with pytest.raises(InvalidInputError):
        extremal_signal_wavelet(0.0, -1.0, beta=1.0)
    with pytest.raises(InvalidInputError):
        extremal_signal_wavelet(0.0, 1.0, beta=1.0, phase=1.0)  # wrong modulus


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_wavelet_signal_is_unit_norm_at_every_scale(beta):
    # the signal took psi-hat(y0 omega) on the fixed 160-node frequency rule,
    # which cannot resolve it away from y0 of about 1: ||f|| read 0.363 at
    # y0 = 1e-3, 1.129 at 100 and 2e-36 at 1e4.  On the rule's nodes moved
    # to u / y0 it is 1 at every y0, and its transform peaks at the center
    # at sqrt(beta / 2 pi), the reproducing kernel's value
    from phasebound.wavelet import wavelet_transform_grid
    for y0 in (1e-4, 1e-3, 0.1, 100.0, 1e4):
        x0 = 0.7 * y0
        f = extremal_signal_wavelet(x0, y0, beta)
        assert f.l2_norm() == pytest.approx(1.0, abs=1e-10)
        peak = abs(wavelet_transform_grid(f, beta, [x0], [y0])[0, 0])
        assert peak == pytest.approx(math.sqrt(beta / (2 * math.pi)), abs=1e-10)


def test_matched_pair_saturates_wavelet():
    # symbol and signal both centered at z0; expectation through the
    # diagonal spectrum in the recentered basis equals the bound
    c = ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0)
    lam = bergman_radial_eigenvalues(extremal_weight_wavelet(c), 1.0, 32).eigenvalues
    co = wavelet_disc_coefficients(0.0, 1.0, 1.0, 32)
    val = float(np.sum(lam * np.abs(co) ** 2))
    assert val == pytest.approx(wavelet_bound(c).bound, abs=2e-3)
    # coefficient mass of a translated signal still converges to one
    co = wavelet_disc_coefficients(0.5, 2.2, 1.0, 48)
    assert float(np.sum(np.abs(co) ** 2)) == pytest.approx(1.0, abs=1e-8)


def test_matched_pair_saturates_wavelet_by_assembly():
    # independent route: symbol gridded at an off-center point, assembled in
    # the i-centered basis by hyperbolic quadrature, sandwiched with the
    # signal's closed-form coefficients
    from phasebound.wavelet import HalfPlaneGrid, assemble_wavelet_operator
    c = ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0)
    z0 = 0.3 + 1.4j
    w = extremal_weight_wavelet(c, center=z0)
    y0 = z0.imag
    grid = HalfPlaneGrid.logarithmic(z0.real - 15 * y0, z0.real + 15 * y0, 320,
                                     y0 / 30.0, 30.0 * y0, 320)
    M = assemble_wavelet_operator(w.on_grid(grid), 1.0, 24)
    co = wavelet_disc_coefficients(z0.real, z0.imag, 1.0, 24)
    val = float(np.real(expectation(M, co)))
    assert val == pytest.approx(wavelet_bound(c).bound, abs=2e-3)
