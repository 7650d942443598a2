"""STFT, Hermite phase-space basis, assembly and spectra."""
import math
import sys

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
from phasebound.gabor import (OperatorSpectrum, Signal, assemble_operator,
                              concentration, expectation, gaussian_window, gram_operator, hermite_function,
                              hermite_phase_basis, lieb_quotient, mirror_fold,
                              operator_norm, radial_eigenvalues,
                              radial_eigenvalues_quad, spectrum_from_matrix, stft)
from phasebound.scalar import ConstraintSet
from phasebound.verify import random_field, random_radial


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

    def spy(K, xs, ys, wf, wf_mirror=None):
        nodes.append((xs, ys, wf, wf_mirror))
        return accumulate(K, xs, ys, wf, wf_mirror)

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


def test_radial_eigenvalues_contracts():
    off_center = RadialProfile.ball(1.0, 1.0, center=(0.5, 0.0))
    with pytest.raises(RegimeError):
        radial_eigenvalues(off_center, 8)
    d2 = RadialProfile.gaussian(1.0, 1.0, dim=2)
    with pytest.raises(RegimeError):
        radial_eigenvalues(d2, 8)


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
    Q, P = gabor._poisson_sums(k + 1 + extra, np.array(s))
    for i, si in enumerate(s):
        for got, want in zip((P[k, i], Q[k, i]), _mp_pq(k, si)):
            if want >= sys.float_info.min:
                assert abs(got - want) <= 1e-12 * want, (k, si)
            else:
                assert 0.0 <= got < 2.0 * sys.float_info.min, (k, si)


def test_truncation_leak_and_inverses_pinned():
    # 30-digit mpmath: Q(48, 36 pi), and the s with Q(K, s) = q that give the
    # suggested half-width (q = 1e-6) and the polar rule's radius (1e-14)
    leak = gabor._poisson_sums(48, np.array([36.0 * math.pi]))[0][-1, 0]
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
    sK = spectrum_from_matrix(assemble_operator(f, 24))
    s2K = spectrum_from_matrix(assemble_operator(f, 48))
    assert abs(sK.norm() - s2K.norm()) <= sK.tail_bound


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
