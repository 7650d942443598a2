"""STFT, Hermite phase-space basis, assembly and spectra."""
import math
import sys
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound import gabor
from phasebound.bounds import G, gabor_bound
from phasebound.core import (RadialProfile, WeightField, distribution_bound, lp_norm,
                             schwarz_symmetrize)
from phasebound.errors import (AliasingError, BasisTruncationError,
                               InvalidInputError, RegimeError)
from phasebound.extremals import extremal_weight_gabor
from phasebound.gabor import (OperatorSpectrum, Signal, assemble, assemble_operator,
                              concentration, expectation, gaussian_window, gram_operator, hermite_function,
                              hermite_phase_basis, lieb_quotient, mirror_fold,
                              operator_norm, radial_eigenvalues,
                              radial_eigenvalues_quad, spectrum, spectrum_from_matrix, stft)
from phasebound.scalar import ConstraintSet, Disc, Plane
from phasebound.wavelet import (DiscProfile, HalfPlaneField, HalfPlaneGrid,
                                assemble_wavelet_operator, bergman_basis,
                                bergman_radial_eigenvalues)
from phasebound.verify import random_field, random_radial, run_suite


# ---------------------------------------------------------------------------
# signals and the transform
# ---------------------------------------------------------------------------

def test_hermite_functions_orthonormal():
    t = np.linspace(-9, 9, 6001)
    dt = t[1] - t[0]
    H = np.array([hermite_function(k, t) for k in range(8)])
    gram = (H * dt) @ H.T
    assert np.max(np.abs(gram - np.eye(8))) < 1e-10
    assert hermite_function(0, np.array([0.3])) == pytest.approx(gaussian_window(np.array([0.3])))


def test_stft_of_window_is_gaussian():
    field = stft(Signal.gaussian_pulse(0.0, 0.0), 5.0, 64)
    ax = field.axis
    z2 = ax[:, None] ** 2 + ax[None, :] ** 2
    assert np.max(np.abs(np.abs(field.values) ** 2 - np.exp(-math.pi * z2))) < 1e-12


def test_stft_isometry_random_signals():
    rng = np.random.default_rng(4)
    for _ in range(20):
        co = rng.normal(size=6) + 1j * rng.normal(size=6)
        field = stft(Signal.from_hermite(co), 6.0, 128)
        mass = float(np.sum(np.abs(field.values) ** 2) * field.cell_area)
        assert mass == pytest.approx(float(np.sum(np.abs(co) ** 2)), abs=1e-8)


def test_stft_covariance_under_shift():
    # |V f| for a shifted-modulated window is |V phi| translated
    x0, w0 = 1.0, -0.5
    field = stft(Signal.gaussian_pulse(x0, w0, phase=1j), 5.0, 96)
    ax = field.axis
    want = np.exp(-math.pi * ((ax[:, None] - x0) ** 2 + (ax[None, :] - w0) ** 2) / 2)
    assert np.max(np.abs(np.abs(field.values) - want)) < 1e-12


def test_stft_aliasing_guard():
    # 128 samples on [-8, 8]: a Nyquist frequency near 4 cannot cover 6 + 4
    t = np.linspace(-8.0, 8.0, 128)
    with pytest.raises(AliasingError):
        stft(Signal.from_samples(t, gaussian_window(t)), 6.0, 32)


def test_stft_closed_form_has_no_time_grid():
    # a closed-form signal is never sampled in time, so no frequency range aliases
    field = stft(Signal.from_hermite([1.0]), 130.0, 64)
    pulse = stft(Signal.gaussian_pulse(0.0, 0.0), 130.0, 64)
    assert np.max(np.abs(field.values - pulse.values)) < 1e-15


def test_phase_basis_matches_stft_quadrature():
    for k in range(9):
        field = stft(Signal.from_hermite(np.eye(9)[k]), 4.0, 24)
        ax = field.axis
        X, W = np.meshgrid(ax, ax, indexing="ij")
        want = hermite_phase_basis(k, X, W)
        assert np.max(np.abs(field.values - want)) < 1e-12


def test_phase_basis_matches_stft_time_quadrature():
    # the same signals as samples take the midpoint time quadrature, the
    # oracle of the closed form
    for k in range(9):
        f = Signal.from_hermite(np.eye(9)[k])
        field = stft(Signal.from_samples(*f.time_samples()), 4.0, 24)
        ax = field.axis
        X, W = np.meshgrid(ax, ax, indexing="ij")
        want = hermite_phase_basis(k, X, W)
        assert np.max(np.abs(field.values - want)) < 1e-12


def test_pulse_stft_matches_time_quadrature():
    for x0, w0, phase in ((0.0, 0.0, 1.0), (1.0, -0.5, 1j), (-2.3, 1.7, np.exp(0.4j))):
        f = Signal.gaussian_pulse(x0, w0, phase)
        closed = stft(f, 6.0, 128).values
        quad = stft(Signal.from_samples(*f.time_samples()), 6.0, 128).values
        assert np.max(np.abs(closed - quad)) < 1e-12


def test_phase_basis_identities():
    # |V h_k|^2 is the Gamma(k+1) density in s = pi |z|^2, which integrates
    # to one; distinct orders are orthogonal in phase space
    hw, n = 6.0, 256
    ax = -hw + (np.arange(n) + 0.5) * (2 * hw / n)
    X, W = np.meshgrid(ax, ax, indexing="ij")
    cell = (2 * hw / n) ** 2
    basis = [hermite_phase_basis(k, X, W) for k in range(9)]
    z2 = X ** 2 + W ** 2
    for k in range(9):
        sq = np.abs(basis[k]) ** 2
        want = np.exp(-math.pi * z2) * (math.pi * z2) ** k / math.factorial(k)
        assert np.max(np.abs(sq - want)) < 1e-12
        assert float(np.sum(sq) * cell) == pytest.approx(1.0, abs=1e-9)
    for j in range(9):
        for k in range(j):
            inner = np.sum(basis[j] * np.conj(basis[k])) * cell
            assert abs(inner) < 1e-10


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_constant_weight_is_identity():
    ones = WeightField(8.0, 96, np.ones((96, 96), complex))
    M = assemble_operator(ones, 8)
    assert np.max(np.abs(M - np.eye(8))) < 1e-6


def test_assemble_ball_diagonal():
    M = assemble_operator(RadialProfile.ball(1.0, 1.0), 16)
    offdiag = M - np.diag(np.diag(M))
    assert np.max(np.abs(offdiag)) < 1e-12
    assert M[0, 0].real == pytest.approx(1 - math.exp(-1), abs=1e-10)


def test_assemble_hermitian_for_real_weights():
    f = random_field(np.random.default_rng(0), n=64)
    M = assemble_operator(f, 12)
    assert np.array_equal(M, M.conj().T)


def _reference_operator(F: WeightField, K: int, points_per_cell: int = 1) -> np.ndarray:
    """assemble_operator summed term by term from the phase-bearing basis
    over every node of the tensor Gauss-Legendre rule, none folded; at one
    point per cell each cell center carries the cell area."""
    if points_per_cell == 1:
        ax, w = F.axis, F.values * F.cell_area
    else:
        g, gw = np.polynomial.legendre.leggauss(points_per_cell)
        half = 0.5 * F.cell
        ax = (F.axis[:, None] + half * g).ravel()
        sub_w = np.tile(half * gw, F.n)
        w = np.outer(sub_w, sub_w) * np.repeat(np.repeat(F.values, points_per_cell, 0),
                                               points_per_cell, 1)
    X, W = np.meshgrid(ax, ax, indexing="ij")
    phi = np.array([hermite_phase_basis(k, X, W).ravel() for k in range(K)])
    return (phi * w.ravel()) @ phi.conj().T


@pytest.mark.parametrize("kind", ["nonnegative", "signed", "complex", "zero_imag"])
def test_gram_assembly_matches_reference_sum(kind):
    # n = 96 puts 9216 nodes in several Gram blocks; a signed field takes the
    # -1 rank-k update, a complex one the sum of its real and imaginary parts;
    # complex values with no imaginary part are stored, and assembled, as real
    rng = np.random.default_rng(11)
    real = random_field(rng, n=96).values
    values = real
    if kind == "signed":
        values = values - 0.5 * random_field(rng, n=96).values
        assert values.real.min() < 0 < values.real.max()
    elif kind == "complex":
        values = values + 0.7j * random_field(rng, n=96).values
    elif kind == "zero_imag":
        values = values.astype(complex)
    F = WeightField(6.0, 96, values)
    M = assemble_operator(F, 24, points_per_cell=1)
    R = _reference_operator(F, 24)
    assert np.max(np.abs(M - R)) <= 1e-13 * np.max(np.abs(R))
    if kind != "complex":
        assert np.array_equal(M, M.conj().T)
    if kind == "zero_imag":
        assert np.array_equal(M, assemble_operator(WeightField(6.0, 96, real), 24,
                                                   points_per_cell=1))


def _assert_matches(M, R):
    assert np.max(np.abs(M - R)) <= 1e-13 * np.max(np.abs(R))
    assert np.array_equal(M, M.conj().T)


@pytest.mark.parametrize("n, kind", [(95, "nonnegative"), (95, "signed"),
                                     (96, "cancelling"), (96, "mixed")])
def test_gram_mirror_fold_matches_reference_sum(n, kind):
    # the grid folds (x, omega) onto (x, -omega), and -z onto z: at odd n
    # the middle row and column are their own mirrors; a field odd in omega
    # has w(x, -omega) = -w(x, omega) at every node, so s = 0 in both parity
    # blocks and only the imaginary part is left
    rng = np.random.default_rng(12)
    values = random_field(rng, n=n).values.real
    if kind == "signed":
        values = values - 0.5 * random_field(rng, n=n).values.real
    elif kind in ("cancelling", "mixed"):
        values = values - values[:, ::-1]
        if kind == "mixed":
            values[::3] += random_field(rng, n=n).values.real[::3]
    F = WeightField(6.0, n, values.astype(complex))
    _assert_matches(assemble_operator(F, 24, points_per_cell=1), _reference_operator(F, 24))


def test_gram_mirror_fold_on_ulp_asymmetric_axis():
    # WeightField(2.0, 100)'s axis is symmetric only to within an ulp, so
    # each kept node's basis stands for a mirror a rounding error away
    F = WeightField(2.0, 100, random_field(np.random.default_rng(13), n=100,
                                           half_width=2.0).values)
    ax, K = F.axis, 12
    assert not np.array_equal(ax, -ax[::-1])
    n, wf, wm = mirror_fold(ax, (F.values.real * F.cell_area).T)
    assert n == 50 and wm is not None
    omega, x = (g.ravel() for g in np.meshgrid(ax[:n], ax, indexing="ij"))
    row0, step, ratios = (np.exp(-0.5 * math.pi * (x * x + omega * omega)), x - 1j * omega,
                          np.sqrt(math.pi / np.arange(1.0, K)))
    _assert_matches(gram_operator(row0, step, ratios, wf, wm), _reference_operator(F, K))
    # a node stands for one, two or four: three weight rows are refused
    with pytest.raises(InvalidInputError, match="weight rows"):
        gram_operator(row0, step, ratios, wf, wm, wf)


def _parity_field(kind, n=95):
    """A random field of the given symmetry under z -> -z on an n x n grid."""
    rng = np.random.default_rng(14)
    values = random_field(rng, n=n).values
    if kind == "signed":
        values = values - 0.5 * random_field(rng, n=n).values
    elif kind == "complex":
        values = values + 0.7j * random_field(rng, n=n).values
    elif kind == "point_odd":
        values = values - values[::-1, ::-1]
    elif kind == "point_even":
        values = values + values[::-1, ::-1]
    return WeightField(6.0, n, values)


@pytest.mark.parametrize("ppc, kind", [(3, "nonnegative"), (3, "signed"), (1, "complex"),
                                       (3, "point_odd"), (1, "point_even")])
def test_parity_fold_matches_reference_sum(ppc, kind):
    # every node of one quadrant stands also for (x, -omega), -z and
    # (-x, omega); at n = 95 (one point per cell in the test above, and 3
    # here) the middle row and column are their own mirrors on both axes.
    # The reference sums every node of the full rule on its own; its
    # leading K x K block is the reference at K.  At K = 1, 2 and 3 the odd
    # rows are none, one, or one against two even rows
    F = _parity_field(kind)
    R = _reference_operator(F, 24, ppc)
    for K in (1, 2, 3, 24):
        M = assemble_operator(F, K, points_per_cell=ppc)
        assert np.max(np.abs(M - R[:K, :K])) <= 1e-13 * np.max(np.abs(R))
        if kind == "complex":
            continue
        assert np.array_equal(M, M.conj().T)
        if kind == "point_odd":
            # the even sums w(z) + w(-z) are 0 at every node: no j + k even entry
            assert not np.any(M[0::2, 0::2]) and not np.any(M[1::2, 1::2])
            assert np.any(M[0::2, 1::2]) == (K > 1)
        if kind == "point_even":
            assert not np.any(M[0::2, 1::2]) and not np.any(M[1::2, 0::2])


def test_parity_fold_on_ulp_asymmetric_axis(monkeypatch):
    # WeightField(2.0, 100)'s axis is symmetric only to within an ulp, so
    # each kept node's basis stands for images a rounding error away; with
    # no ulp allowed (EPS = 0) the axis counts as asymmetric and every node
    # is summed on its own.  The box is too small for the truncation guard
    # at any K, which matters not here: the reference has the same basis
    F = WeightField(2.0, 100, random_field(np.random.default_rng(13), n=100,
                                           half_width=2.0).values)
    assert not np.array_equal(F.axis, -F.axis[::-1])
    R = _reference_operator(F, 12)
    monkeypatch.setattr(gabor, "_check_truncation", lambda K, half_width: None)
    _assert_matches(assemble_operator(F, 12, points_per_cell=1), R)
    monkeypatch.setattr(gabor, "EPS", 0.0)
    _assert_matches(assemble_operator(F, 12, points_per_cell=1), R)


def test_parity_fold_with_tiny_even_part():
    # a point-odd field, but for the cells z' = (x, -omega) of the kept
    # nodes z in [10:20, 20:30], which hold 1e-310, and their images
    # -z' = (-x, omega), which hold 0: there the even sum s is subnormal and
    # the odd differences are O(1), so their quotient by |s| would
    # overflow, and those nodes take their odd part unscaled
    values = _parity_field("point_odd", n=96).values.copy()
    values[10:20, 66:76] = 1e-310
    values[76:86, 20:30] = 0.0
    F = WeightField(6.0, 96, values)
    M = assemble_operator(F, 16, points_per_cell=1)
    assert np.all(np.isfinite(M))
    _assert_matches(M, _reference_operator(F, 16))


def test_parity_fold_with_subnormal_even_part():
    # a narrow Gaussian is subnormal on a ring inside the box, where the even
    # sum s is subnormal and the odd part no larger: 1 / |s| overflowed and
    # the matrix held NaN (a RuntimeWarning, then eigvalsh's LinAlgError);
    # those nodes now take their odd part unscaled
    F = RadialProfile.gaussian(1.0, 0.25, center=(0.3, 0.0)).on_grid(6.0, 128)
    assert np.any((F.values > 0.0) & (F.values < sys.float_info.min))
    M = assemble_operator(F, 16, points_per_cell=1)
    assert np.all(np.isfinite(M))
    _assert_matches(M, _reference_operator(F, 16))


@pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True, None])
def test_assemble_rejects_bad_points_per_cell(bad):
    F = random_field(np.random.default_rng(0), n=16)
    with pytest.raises(InvalidInputError, match="points_per_cell"):
        assemble_operator(F, 8, points_per_cell=bad)
    with pytest.raises(InvalidInputError, match="points_per_cell"):
        assemble_operator(RadialProfile.ball(1.0, 1.0), 8, points_per_cell=bad)
    assert np.array_equal(assemble_operator(F, 8, points_per_cell=np.int64(2)),
                          assemble_operator(F, 8))


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.7, 0.0), (0.6, -0.3), (-0.7, 0.4)])
def test_gram_polar_rule_matches_reference_sum(center, monkeypatch):
    # the polar rule is laid about (|z0|, 0), where it folds theta onto
    # -theta (0 and pi are their own mirrors), and is then rotated onto z0.
    # The reference sums the phase-bearing basis term by term over the full
    # polar rule about z0 itself, on the same radial panels
    nodes = []
    accumulate = gabor._accumulate

    def spy(K, xs, ys, wf, wf_mirror=None, *, law):
        nodes.append((xs, ys, wf, wf_mirror))
        assert law == Plane(1)
        return accumulate(K, xs, ys, wf, wf_mirror, law=law)

    monkeypatch.setattr(gabor, "_accumulate", spy)
    K = 16
    F = RadialProfile.truncated_gaussian(1.9, 1.3, 1.2, center=center)
    M = assemble_operator(F, K)
    (xs, ys, wf, wm), = nodes
    assert wm is not None and np.array_equal(wm, wf) and np.all(ys >= 0.0)

    r, rw = gabor._polar_radial_rule(F, K)
    theta = 2.0 * math.pi * np.arange(4 * K) / (4 * K)
    px = center[0] + np.outer(r, np.cos(theta))
    py = center[1] + np.outer(r, np.sin(theta))
    w = np.outer(rw * r * F(r), np.full(theta.size, 2.0 * math.pi / theta.size)).ravel()
    phi = np.array([hermite_phase_basis(k, px, py).ravel() for k in range(K)])
    _assert_matches(M, (phi * w) @ phi.conj().T)
    if center[1] == 0.0:
        assert not np.any(M.imag)


def test_assemble_rejects_non_finite_weight():
    # near p = 1 the extremal's peak level overflows to inf, whose samples
    # hold inf * 0 = NaN and used to assemble into a NaN matrix; the profile
    # now refuses the infinite amplitude
    c = ConstraintSet(1.001, 1.0, 2.0, "gabor", d=1)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(InvalidInputError):
            assemble_operator(extremal_weight_gabor(c), 8)


def test_assemble_truncation_guard():
    small = WeightField(3.0, 32, np.ones((32, 32), complex))
    with pytest.raises(BasisTruncationError) as err:
        assemble_operator(small, 48)
    assert err.value.suggested_half_width > 3.0


def test_radial_assembly_agrees_with_eigenvalues():
    # two independent routes: polar 2-d quadrature vs Gamma-density algebra.
    # Swept over K, this guards the sizing of the polar rule: max(32, ceil(K/4))
    # radial panels resolve its integrands to rounding
    for K in (8, 24, 48, 96, 192):
        for F in (RadialProfile.ball(1.0, 1.0), RadialProfile.gaussian(1.1, 0.9),
                  RadialProfile.truncated_gaussian(1.9, 1.3, 1.2),
                  RadialProfile.sampled(np.linspace(0.2, 3.0, 40),
                                        np.linspace(2.0, 0.1, 40))):
            M = assemble_operator(F, K)
            tol = 1e-13 * F.ess_sup()
            assert np.max(np.abs(M - np.diag(np.diag(M)))) <= tol
            assert np.max(np.abs(np.diag(M) - radial_eigenvalues(F, K).eigenvalues)) <= tol


# ---------------------------------------------------------------------------
# radial eigenvalues
# ---------------------------------------------------------------------------

def test_radial_eigenvalues_ball():
    spec = radial_eigenvalues(RadialProfile.ball(1.0, 1.0), 32)
    assert spec.eigenvalues[0] == pytest.approx(1 - math.exp(-1), abs=1e-14)
    # lower incomplete gamma oracle for deeper eigenvalues
    from scipy.special import gammainc
    assert spec.eigenvalues == pytest.approx(gammainc(np.arange(1, 33), 1.0), abs=1e-14)


def test_radial_eigenvalues_gaussian_extremal():
    spec = radial_eigenvalues(RadialProfile.gaussian(math.sqrt(2), 1.0), 4)
    assert spec.eigenvalues[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
    assert spec.eigenvalues[1] == pytest.approx(math.sqrt(2) / 4, abs=1e-14)


def test_radial_eigenvalues_truncated_extremal():
    prof = RadialProfile.truncated_gaussian(math.exp(0.5), 1.0, 1.0)
    spec = radial_eigenvalues(prof, 4)
    assert spec.eigenvalues[0] == pytest.approx(1 - math.exp(-0.5) / 2, abs=1e-14)


def test_radial_eigenvalues_quadrature_route():
    for prof in (RadialProfile.ball(1.3, 0.9),
                 RadialProfile.truncated_gaussian(1.7, 1.1, 1.0),
                 RadialProfile.gaussian(0.8, 2.0)):
        closed = radial_eigenvalues(prof, 10).eigenvalues
        quad = radial_eigenvalues_quad(prof, 10).eigenvalues
        assert np.max(np.abs(closed - quad)) < 1e-10


def test_radial_eigenvalues_quadrature_route_breaks_at_every_knot():
    # a 60-knot step profile: with a break at each of its knots the Gamma
    # averages match the closed form; breaks at the first 50 alone missed 1e-4
    prof = random_radial(np.random.default_rng(0))
    assert prof.knots.size == 60
    closed = radial_eigenvalues(prof, 8).eigenvalues
    quad = radial_eigenvalues_quad(prof, 8).eigenvalues
    assert np.max(np.abs(closed - quad)) <= 1e-12


def test_radial_eigenvalues_quad_matches_mpmath_at_large_k():
    # the Gamma(k + 1) density written about its mode rounds to a few ulps
    # of its small exponent; the budget is 1e-14 relative (45 ulps), where
    # the form exp(k log s - s - lgamma(k + 1)) was 7e-14 off at k = 120.
    # References: A (c / (1 + c))^{k + 1} for the Gaussian, P(k + 1, area)
    # at the double area for the ball, in 30-digit mpmath
    profiles = (RadialProfile.gaussian(1.0, 400.0), RadialProfile.ball(1.0, 210.0))
    for prof in profiles:
        quad = radial_eigenvalues_quad(prof, 200).eigenvalues
        for k in (120, 199):
            with mpmath.workdps(30):
                if prof.kind == "family":
                    want = (mpmath.mpf(400.0) / 401) ** (k + 1)
                else:
                    area = mpmath.mpf(math.pi * prof.edge ** 2)
                    want = mpmath.gammainc(k + 1, 0, area, regularized=True)
            assert abs(quad[k] - float(want)) <= 1e-14 * float(want), (prof.kind, k)


def _spectrum_cases():
    """(setting, kind, profile maker taking a center and a dim, lam0 in
    closed form) for the five kinds of both settings.  On the plane lam0 is
    int w* dP(1, .), so A (1 - e^{-s}) on a ball of measure s; on the disc,
    with b = 2 beta, I_x(1, b) = 1 - (1 - x)^b, so G_beta(s) on a disc."""
    b = 2.0 * 1.7
    s0 = 0.7 * math.log(2.0)   # the truncated Gaussian's capped measure
    s1, s2 = math.pi * 0.4 ** 2, math.pi * 0.9 ** 2
    t = 0.5 ** (1.0 / 1.5)     # 1 - x at the truncated power's cap
    lam = gabor_bound(ConstraintSet(2.0, math.inf, 0.8)).lam
    return [
        ("plane", "indicator", lambda c, dim: RadialProfile.ball(2.0, 1.3, c, dim),
         -2.0 * math.expm1(-1.3)),
        # the Gaussian extremal at p = 2, A = inf, B = 0.8: kappa^kappa B
        ("plane", "family", lambda c, dim: RadialProfile.gaussian(lam, 1.0, c, dim),
         0.5 ** 0.5 * 0.8),
        # cap (1 - e^{-s0}) + cap e^{-s0} scale / (1 + scale)
        ("plane", "truncated",
         lambda c, dim: RadialProfile.truncated_gaussian(3.0, 0.7, 1.5, c, dim),
         -1.5 * math.expm1(-s0) + 1.5 * math.exp(-s0) * 0.7 / 1.7),
        ("plane", "sampled", lambda c, dim: RadialProfile.sampled([0.4, 0.9], [2.0, 0.5], c, dim),
         -2.0 * math.expm1(-s1) + 0.5 * (math.exp(-s1) - math.exp(-s2))),
        ("plane", "constant", lambda c, dim: RadialProfile.constant(2.0, c, dim), 2.0),
        ("disc", "indicator", lambda c, dim: DiscProfile.indicator(2.0, 1.3, c),
         2.0 * (1.0 - (1.0 + 1.3 / (4.0 * math.pi)) ** -b)),
        ("disc", "family", lambda c, dim: DiscProfile.power(2.0, 1.5, c), 2.0 * b / (b + 1.5)),
        # cap (1 - t^b) + cap t^b b / (b + exponent)
        ("disc", "truncated", lambda c, dim: DiscProfile.truncated_power(3.0, 1.5, 1.5, c),
         1.5 * (1.0 - t ** b) + 1.5 * t ** b * b / (b + 1.5)),
        ("disc", "sampled", lambda c, dim: DiscProfile.sampled([0.4, 0.9], [2.0, 0.5], c),
         2.0 * (1.0 - 0.6 ** b) + 0.5 * (0.6 ** b - 0.1 ** b)),
        ("disc", "constant", lambda c, dim: DiscProfile.constant(2.0, c), 2.0),
    ]


def test_radial_eigenvalues_contracts():
    # one spectrum, MeasureProfile.eigenvalues, behind both wrappers and for
    # every kind: the checks of K, of the center and of d, nonincreasing
    # values in [0, ess_sup], and lam0 against its closed form.  The budget
    # is 2e-15 relative, 9 ulps: each closed form and each law's k = 0
    # column round a few times (the worst seen is 3.5 ulps, the disc
    # indicator's)
    eps = np.finfo(float).eps
    for setting, kind, make, lam0 in _spectrum_cases():
        if setting == "plane":
            origin, off, law, spectrum = (0.0, 0.0), (0.5, 0.0), Plane(1), radial_eigenvalues
            for d2 in (radial_eigenvalues, radial_eigenvalues_quad):
                with pytest.raises(RegimeError):
                    d2(make(origin, 2), 8)
        else:
            origin, off, law = 1j, 0.5 + 2j, Disc(1.7)
            spectrum = partial(bergman_radial_eigenvalues, beta=1.7)
        prof = make(origin, 1)
        with pytest.raises(InvalidInputError):
            spectrum(prof, K=0)
        with pytest.raises(RegimeError):
            spectrum(make(off, 1), K=8)
        lam = prof.eigenvalues(24, law)
        # nonincreasing in k, so the sorted spectrum is the same array
        assert np.array_equal(spectrum(prof, K=24).eigenvalues, lam), (setting, kind)
        assert np.all(np.diff(lam) <= 0.0), (setting, kind)
        # a cap times a CDF plus a tail may round an ulp past the cap
        assert lam[-1] >= 0.0 and lam[0] <= prof.ess_sup() * (1.0 + 4.0 * eps), (setting, kind)
        assert lam[0] == pytest.approx(lam0, rel=2e-15, abs=0.0), (setting, kind)


def _mp_pq(k, s):
    """P(k + 1, s) and Q(k + 1, s) in 30-digit mpmath."""
    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        return (float(mpmath.gammainc(k + 1, 0, s, regularized=True)),
                float(mpmath.gammainc(k + 1, s, mpmath.inf, regularized=True)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(0, 199), extra=st.integers(0, 3))
def test_poisson_sums_match_mpmath(data, k, extra):
    # P and Q each keep their relative precision wherever they are normal
    # doubles: the log-space terms are off by a few ulps of
    # s + k |log s| + log k!, at most about 3500 ulps where a term is normal
    near = st.floats(-3.0, 3.0).map(lambda u: max(0.0, k + 1 + u * math.sqrt(k + 1)))
    areas = st.one_of(st.just(0.0), st.just(k + 1.0), near,
                      st.floats(-300.0, 6.0).map(lambda e: 10.0 ** e))
    s = data.draw(st.lists(areas, min_size=1, max_size=4))
    Q, P = Plane(1).sums(k + 1 + extra, np.array(s))
    for i, si in enumerate(s):
        for got, want in zip((P[k, i], Q[k, i]), _mp_pq(k, si)):
            if want >= sys.float_info.min:
                assert abs(got - want) <= 1e-12 * want, (k, si)
            else:
                assert 0.0 <= got < 2.0 * sys.float_info.min, (k, si)


def test_truncation_leak_and_inverses_pinned():
    # 30-digit mpmath: Q(48, 36 pi), and the s with Q(K, s) = q that give the
    # suggested half-width (q = 1e-6) and the polar rule's radius (1e-14)
    leak = Plane(1).sums(48, np.array([36.0 * math.pi]))[0][-1, 0]
    assert leak == pytest.approx(1.62511860740995903e-12, rel=1e-14)
    for K, q, s in ((1, 1e-6, 13.8155105579642741), (48, 1e-6, 88.3887861704690285),
                    (48, 1e-14, 121.516924310206079), (8, 1e-14, 51.4363664947269381),
                    (200, 1e-14, 328.085384584010866)):
        assert gabor._gamma_q_inverse(K, q) == pytest.approx(s, rel=1e-14)
    with pytest.raises(BasisTruncationError) as err:
        assemble_operator(WeightField(3.0, 32, np.ones((32, 32), complex)), 48)
    assert err.value.suggested_half_width == pytest.approx(5.30424589040189646, rel=1e-14)


def test_spectrum_invariants():
    prof = RadialProfile.truncated_gaussian(2.0, 1.0, 1.5)
    spec = radial_eigenvalues(prof, 24)
    assert np.all(spec.eigenvalues >= -1e-15)
    assert np.all(spec.eigenvalues <= prof.ess_sup() + 1e-12)
    assert np.all(np.diff(spec.eigenvalues) <= 1e-15)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def test_operator_norm_basic():
    assert operator_norm(np.diag([0.7, 0.3])) == pytest.approx(0.7)
    assert operator_norm(OperatorSpectrum(np.array([0.5, 0.1]), 2, 0.0)) == 0.5
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        operator_norm(bad)


def test_operator_norm_assembled_ball():
    nm = operator_norm(assemble_operator(RadialProfile.ball(1.0, 1.0), 32))
    assert nm == pytest.approx(1 - math.exp(-1), abs=1e-6)


def test_norm_below_bounds_for_random_fields():
    rng = np.random.default_rng(9)
    for _ in range(3):
        f = random_field(rng)
        nm = operator_norm(assemble_operator(f, 48))
        for p in (1.0, 2.0, 3.0):
            c = ConstraintSet(p, f.ess_sup(), lp_norm(f, p), "gabor", d=1)
            assert nm <= gabor_bound(c).bound + 1e-6
        assert nm <= distribution_bound(f, G) + 1e-6
        star_top = radial_eigenvalues(schwarz_symmetrize(f), 1).eigenvalues[0]
        assert nm <= star_top + 1e-6


def test_basis_size_convergence_within_tail():
    f = random_field(np.random.default_rng(2), n=96)
    sK, s2K = spectrum(f, 24, Plane(1)), spectrum(f, 48, Plane(1))
    assert abs(sK.norm() - s2K.norm()) <= sK.tail_bound


def test_spectrum_upper_end_is_the_proven_bound():
    # a grid field's upper end is its distribution bound with the law's
    # ceiling, G on the plane and G_beta on the disc; a profile attains its
    # bound, so its upper end is lambda_0 and its tail 0; a bare matrix has
    # no weight, hence no bound.  The tail is upper - norm, unclamped
    f = random_field(np.random.default_rng(3), n=64)
    spec = spectrum(f, 24, Plane(1))
    assert spec.upper == distribution_bound(f, G)
    assert spec.tail_bound == spec.upper - spec.norm() > 0.0
    grid = HalfPlaneGrid.logarithmic(-3.0, 3.0, 64, 0.1, 8.0, 64)
    disc = DiscProfile.power(1.0, 3.0, center=0.4 + 1.2j).on_grid(grid)
    spec = spectrum(disc, 12, Disc(2.0))
    assert spec.upper == distribution_bound(disc, Disc(2.0).g)
    assert spec.upper != distribution_bound(disc, Disc(1.0).g)
    for prof, law in ((RadialProfile.truncated_gaussian(1.9, 1.3, 1.2), Plane(1)),
                      (DiscProfile.sampled([0.2, 0.6], [2.0, 1.0]), Disc(1.5))):
        eigs = prof.eigenvalues(8, law)
        spec = spectrum(prof, 8, law)
        assert spec.upper == eigs[0] == spec.norm() and spec.tail_bound == 0.0
    quad = radial_eigenvalues_quad(RadialProfile.ball(1.0, 2.0), 8)
    assert quad.upper == quad.eigenvalues[0] and quad.tail_bound == 0.0
    bare = spectrum_from_matrix(np.diag([0.7, 0.3]))
    assert bare.upper == bare.tail_bound == math.inf
    # a negative gap is reported as it is, not clamped to 0
    assert OperatorSpectrum(np.array([0.5, 0.1]), 2, 0.25).tail_bound == -0.25


# the two settings' grids: verify's random fields, and grid-norms' half-plane grid
_BRACKET_PLANE = (6.0, 128)
_BRACKET_HALF = HalfPlaneGrid(np.linspace(-8.0, 8.0, 257), np.geomspace(0.02, 50.0, 257))


@settings(max_examples=6, deadline=None)
@given(data=st.data(), bumps=st.integers(1, 3), beta=st.floats(0.5, 3.0))
def test_norm_bracket_on_random_bump_fields(data, bumps, beta):
    # norm(K) <= norm(2K) <= norm(K) + tail(K): the Ritz values increase,
    # and the upper end int G(mu_|F|) is the theorem, Nicola-Tilli on the
    # plane and Ramos-Tilli (G_beta) on the disc, for symbols that are not
    # radial.  The tolerance is the assembly's quadrature error: verify's
    # gabor tolerance, 1e-6, for the plane's Gauss rule; the half-plane's one
    # node per cell puts norm(2K) up to 5.3e-5 per unit of sup F above the
    # bound on a single narrow bump (the bound's equality case; at 2 x 2
    # nodes per cell it falls back inside), so there verify's disc assembly
    # tolerance, 1e-4, per unit of sup F
    values = np.zeros((_BRACKET_PLANE[1],) * 2)
    for _ in range(bumps):
        center = tuple(data.draw(st.floats(-2.5, 2.5)) for _ in range(2))
        prof = RadialProfile.gaussian(data.draw(st.floats(0.1, 1.0)),
                                      data.draw(st.floats(0.1, 4.0)), center=center)
        values += prof.on_grid(*_BRACKET_PLANE).values
    plane = WeightField(*_BRACKET_PLANE, values)
    values = np.zeros((256, 256))
    for _ in range(bumps):
        center = complex(data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(0.3, 3.0)))
        prof = DiscProfile.power(data.draw(st.floats(0.1, 1.0)),
                                 data.draw(st.floats(1.0, 10.0)), center=center)
        values += prof.on_grid(_BRACKET_HALF).values
    half = HalfPlaneField(_BRACKET_HALF, values)
    for F, law, K, tol in ((plane, Plane(1), 24, 1e-6), (half, Disc(beta), 12, 1e-4 * half.ess_sup())):
        sK, s2K = spectrum(F, K, law), spectrum(F, 2 * K, law)
        assert sK.norm() <= s2K.norm() + tol
        assert s2K.norm() <= sK.norm() + sK.tail_bound + tol


# ---------------------------------------------------------------------------
# concentration and phase-space norms
# ---------------------------------------------------------------------------

def test_concentration_ball_equality():
    phi = Signal.gaussian_pulse(0.0, 0.0)
    got = concentration(phi, RadialProfile.ball(1.0, 1.0).on_grid(6.0, 512))
    assert got == pytest.approx(1 - math.exp(-1), abs=5e-3)


def test_concentration_square_strictly_below():
    phi = Signal.gaussian_pulse(0.0, 0.0)
    ball = RadialProfile.ball(1.0, 1.0).on_grid(6.0, 512)
    inside = np.abs(ball.axis) < 0.5
    sq = WeightField(6.0, 512, inside[:, None] & inside[None, :])
    assert concentration(phi, sq) < concentration(phi, ball) - 1e-3


def test_concentration_empty_and_ceiling():
    phi = Signal.gaussian_pulse(0.0, 0.0)
    assert concentration(phi, WeightField(6.0, 64, np.zeros((64, 64)))) == 0.0
    rng = np.random.default_rng(1)
    region = WeightField(6.0, 128, rng.uniform(size=(128, 128)) < 0.05)
    area = float(np.sum(region.values.real)) * region.cell_area
    assert concentration(phi, region) <= G(area, 1) + 1e-9
    with pytest.raises(InvalidInputError):
        concentration(phi, WeightField(6.0, 64, np.full((64, 64), 1j)))


def test_lieb_quotient():
    phi = Signal.gaussian_pulse(0.0, 0.0)
    for p in (2.0, 4.0, 8.0):
        assert lieb_quotient(phi, p) == pytest.approx((2 / p) ** (1 / p), abs=1e-4)
    h1 = Signal.from_hermite([0.0, 1.0])
    assert lieb_quotient(h1, 4.0) < 0.5 ** 0.25 - 1e-3
    with pytest.raises(InvalidInputError):
        lieb_quotient(phi, 1.5)


def test_pulse_expectation_sandwich():
    # <L_F f, g> for matched and orthogonal-order signals
    M = assemble_operator(RadialProfile.ball(1.0, 1.0), 16)
    v0 = Signal.gaussian_pulse(0, 0).hermite_coefficients(16)
    h1 = np.zeros(16, complex)
    h1[1] = 1.0
    assert expectation(M, v0).real == pytest.approx(1 - math.exp(-1), abs=1e-10)
    assert abs(expectation(M, v0, h1)) < 1e-10


# ---------------------------------------------------------------------------
# the operator layer of both settings
# ---------------------------------------------------------------------------

def _halfplane_ones():
    return HalfPlaneField(HalfPlaneGrid.logarithmic(-1.0, 1.0, 8, 0.5, 2.0, 8), np.ones((8, 8)))


@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), True, "3", None, 0, -2])
def test_basis_size_is_checked_once(bad):
    # K was only compared with 1: assemble_wavelet_operator(F, 1.0, 2.5)
    # returned a 3 x 3 matrix, a float K raised a bare TypeError from the
    # plane's polar rule and spectra, and run_suite took any basis.  One
    # check now serves every assembly, spectrum and basis
    F, H = random_field(np.random.default_rng(0), n=16), _halfplane_ones()
    ball, disc = RadialProfile.ball(1.0, 1.0), DiscProfile.indicator(1.0, 1.0)
    calls = [lambda K: assemble(F, K, Plane(1)), lambda K: assemble(ball, K, Plane(1)),
             lambda K: assemble(H, K, Disc(1.0)), lambda K: spectrum(F, K, Plane(1)),
             lambda K: spectrum(ball, K, Plane(1)), lambda K: spectrum(disc, K, Disc(1.0)),
             lambda K: assemble_operator(F, K), lambda K: assemble_operator(ball, K),
             lambda K: assemble_wavelet_operator(H, 1.0, K),
             lambda K: radial_eigenvalues(ball, K), lambda K: radial_eigenvalues_quad(ball, K),
             lambda K: bergman_radial_eigenvalues(disc, 1.0, K),
             lambda K: bergman_basis(K, 1.0, [0.3], [2.0]),
             lambda K: run_suite("bounds", basis=K)]
    for call in calls:
        with pytest.raises(InvalidInputError, match="must be an integer >= 1"):
            call(bad)


def test_basis_size_takes_numpy_integers_and_suite_names_are_checked():
    F, H = random_field(np.random.default_rng(0), n=16), _halfplane_ones()
    for K in (np.int64(4), np.int32(4)):
        assert np.array_equal(assemble(F, K, Plane(1)), assemble(F, 4, Plane(1)))
        assert np.array_equal(assemble(H, K, Disc(1.0)), assemble(H, 4, Disc(1.0)))
        assert np.array_equal(spectrum(RadialProfile.ball(1.0, 1.0), K, Plane(1)).eigenvalues,
                              radial_eigenvalues(RadialProfile.ball(1.0, 1.0), 4).eigenvalues)
    # an unknown suite name was a bare ValueError, and a float index of the
    # basis a bare IndexError
    with pytest.raises(InvalidInputError, match="unknown suite"):
        run_suite("nope")
    for k in (1.5, True, "1", -1):
        with pytest.raises(InvalidInputError, match="k must be an integer >= 0"):
            hermite_phase_basis(k, [0.1], [0.2])
    assert np.array_equal(hermite_phase_basis(np.int64(2), [0.1], [0.2]),
                          hermite_phase_basis(2, [0.1], [0.2]))


def test_weights_of_the_other_setting_are_refused():
    # Disc.check_spectral ignored its geometry, so a disc law took a plane
    # profile (refused only for its center), and assemble_wavelet_operator
    # raised a bare AttributeError on a disc profile or a plane field.  Each
    # law now takes the weights of its own setting, grid fields too, and
    # refuses the rest; a disc profile has no polar assembly
    weights = {
        Plane(1): [random_field(np.random.default_rng(1), n=16),
                   *(make((0.0, 0.0), 1) for on, _, make, _ in _spectrum_cases() if on == "plane")],
        Disc(1.0): [_halfplane_ones(),
                    *(make(1j, 1) for on, _, make, _ in _spectrum_cases() if on == "disc")],
    }
    for law in weights:
        for own, ws in weights.items():
            for w in ws:
                if own != law:
                    for call in (assemble, spectrum):
                        with pytest.raises(RegimeError, match="weights of the"):
                            call(w, 4, law)
                    continue
                assert np.all(np.isfinite(spectrum(w, 4, law).eigenvalues))
                if isinstance(w, DiscProfile):
                    with pytest.raises(RegimeError, match="no assembly"):
                        assemble(w, 4, law)
                else:
                    assert np.all(np.isfinite(assemble(w, 4, law)))
    plane_field, disc = weights[Plane(1)][0], weights[Disc(1.0)][1]
    with pytest.raises(RegimeError):
        Disc(1.0).check_spectral(Plane(1))
    with pytest.raises(RegimeError):
        assemble_wavelet_operator(disc, 1.0, 4)
    with pytest.raises(RegimeError):
        assemble_wavelet_operator(plane_field, 1.0, 4)
    with pytest.raises(RegimeError):
        assemble_operator(_halfplane_ones(), 4)
    # only the disc's basis takes a center
    with pytest.raises(InvalidInputError, match="no center"):
        assemble(plane_field, 4, Plane(1), center=1j)
