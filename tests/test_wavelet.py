"""Cauchy wavelet transform, hyperbolic geometry, Bergman spectra."""
import math
import sys
import tracemalloc
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound import wavelet
from phasebound.bounds import G_beta, wavelet_bound
from phasebound.core import distribution_bound
from phasebound.errors import DivergenceError, InvalidInputError, RegimeError
from phasebound.extremals import (extremal_signal_wavelet, extremal_weight_wavelet,
                                  wavelet_disc_coefficients)
from phasebound.scalar import FOUR_PI, ConstraintSet, Disc, Plane
from phasebound.wavelet import (DiscProfile, HalfPlaneField, HalfPlaneGrid,
                                HardySignal, assemble_wavelet_operator,
                                bergman_basis, bergman_radial_eigenvalues,
                                cauchy_norm_const, cauchy_wavelet,
                                disc_basis_frequency, lp_norm_nu,
                                nu_window_integral, wavelet_transform,
                                wavelet_transform_grid)

W_SUBCRIT_P2_B1 = 0.2523132522020160


# ---------------------------------------------------------------------------
# the analyzing wavelet and the Hardy basis
# ---------------------------------------------------------------------------

def test_cauchy_wavelet_normalizations():
    for beta in (0.5, 1.0, 2.0, 3.5):
        psi = cauchy_wavelet(beta)
        hardy_norm = float(np.sum(psi.weights * np.abs(psi.values) ** 2 / psi.omegas))
        assert hardy_norm == pytest.approx(1 / (2 * math.pi), abs=1e-11)
        assert psi.l2_norm() ** 2 == pytest.approx(beta / (2 * math.pi), abs=1e-11)
    assert cauchy_norm_const(1.0) ** 2 == pytest.approx(math.pi / 2, abs=1e-14)
    with pytest.raises(InvalidInputError):
        cauchy_wavelet(0.0)


def test_disc_basis_orthonormal_and_e0_is_wavelet():
    om, w = cauchy_wavelet(1.0).omegas, cauchy_wavelet(1.0).weights
    for beta in (0.5, 1.0, 2.0):
        gram = np.empty((5, 5))
        for j in range(5):
            ej = disc_basis_frequency(j, beta, om)
            for k in range(5):
                gram[j, k] = float(np.sum(w * ej * disc_basis_frequency(k, beta, om)))
        assert np.max(np.abs(gram - np.eye(5))) < 1e-5
        psi = cauchy_wavelet(beta)
        e0 = disc_basis_frequency(0, beta, om)
        ratio = e0 / psi.values
        assert np.std(ratio.real[:40]) < 1e-10  # proportional: e0 is psi normalized


def test_disc_basis_recurrence_matches_laguerre_polynomials():
    # the normalized Laguerre recurrence against scipy's eval_genlaguerre
    # times n_k = sqrt(2^{2 beta + 1} k! / Gamma(k + 2 beta + 1)), up to the
    # K = 48 of `norm` and verify.  Budget: each recurrence step adds a few
    # ulps of the row's scale, and the reference's gammaln normalization and
    # polynomial about as much, so 16 (k + 1) ulps of the row's sup (the
    # worst seen is 7 (k + 1), at beta = 0.05)
    from scipy.special import eval_genlaguerre, gammaln
    om = np.concatenate([wavelet._frequency_rule()[0], np.linspace(0.01, 60.0, 500)])
    for beta in (0.05, 0.5, 1.5, 5.0):
        stack = wavelet._disc_basis_stack(49, beta, om)
        for k in range(49):
            nk = math.exp(0.5 * ((2 * beta + 1) * math.log(2.0)
                                 + gammaln(k + 1) - gammaln(k + 2 * beta + 1)))
            want = nk * om ** beta * np.exp(-om) * eval_genlaguerre(k, 2 * beta, 2 * om)
            budget = 16 * (k + 1) * np.finfo(float).eps * np.max(np.abs(want))
            assert np.max(np.abs(stack[k] - want)) <= budget, (beta, k)
        assert np.array_equal(disc_basis_frequency(7, beta, om), stack[7])
    coeffs = np.array([0.5, 0.0, -1j, 2.0])
    f = HardySignal.from_disc_coeffs(coeffs, 1.5)
    want = sum(c * disc_basis_frequency(k, 1.5, f.omegas) for k, c in enumerate(coeffs))
    assert np.max(np.abs(f.values - want)) <= 1e-15 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

def test_transform_matches_closed_form_basis():
    xs = np.array([0.0, 0.8, -1.1, 2.0])
    ys = np.array([0.5, 1.0, 2.5, 0.3])
    for beta in (0.5, 1.0, 2.0):
        for k in range(9):
            f = HardySignal.from_disc_coeffs(np.eye(9)[k], beta)
            got = wavelet_transform_grid(f, beta, xs, ys)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            want = bergman_basis(k + 1, beta, X.ravel(), Y.ravel())[k].reshape(got.shape)
            assert np.max(np.abs(got - want)) < 1e-8, (beta, k)


def _mp_bergman(K, beta, x, y):
    """W e_0 .. W e_{K-1} at x + i y about i in 50-digit mpmath: c0 y^{beta + 1/2}
    q^{-(2 beta + 1)}, q = (1 - i z) / 2, then w^k sqrt(Gamma(b + k + 1) / (Gamma(b + 1) k!))."""
    with mpmath.workdps(50):
        b, z = 2 * mpmath.mpf(beta), mpmath.mpc(x, y)
        e0 = (mpmath.sqrt(mpmath.mpf(beta) / (2 * mpmath.pi)) * mpmath.mpf(y) ** (beta + 0.5)
              * mpmath.power((1 - 1j * z) / 2, -(b + 1)))
        w = (z - 1j) / (z + 1j)
        return [complex(e0 * w ** k * mpmath.sqrt(mpmath.gamma(b + k + 1)
                                                   / (mpmath.gamma(b + 1) * mpmath.factorial(k))))
                for k in range(K)]


@pytest.mark.parametrize("beta", [1.0, 50.0, 400.0, 1000.0])
def test_bergman_basis_at_large_beta_matches_mpmath(beta):
    # the product yc^{beta + 1/2} q^{-(2 beta + 1)} underflowed: W e_0 at
    # 0.3 + 2i and beta = 1000 came back exactly 0 against 3.97e-55, and its
    # relative error was already 1e-14 at beta = 400.  The law's modulus
    # c0 (4 y / |z + i|^2)^{beta + 1/2} is one power of a number below 1.
    # Budget, in eps = 2^-52 (Higham ch. 3, a rounding is eps / 2): the base
    # takes 5 roundings, which the power multiplies by beta + 1/2, 2.5 beta +
    # 1.3; pow, c0 and the product 3; the phase (2 beta + 1) atan2(x, 1 + y)
    # is off by 1.5 eps |theta| (2 beta + 1) <= 4.8 beta + 2.4 for |theta| <=
    # pi / 2, and its cos, sin and product 2; each recurrence step (the
    # Cayley quotient, the ratio and two products) at most 6.5.  So the bound
    # is (7.3 beta + 8.7 + 6.5 (K - 1)) eps <= (8 beta + 7 K + 9) eps
    K = 4
    tol = (8.0 * beta + 7.0 * K + 9.0) * np.finfo(float).eps
    for x, y in ((0.3, 2.0), (-1.1, 0.5), (0.8, 2.5), (0.1, 1.2)):
        got = bergman_basis(K, beta, [x], [y])[:, 0]
        for k, want in enumerate(_mp_bergman(K, beta, x, y)):
            assert abs(want) > 1e-300 and abs(got[k] - want) <= tol * abs(want), (x, y, k)


def test_wavelet_entries_check_beta_through_the_law():
    # each entry checked beta > 0 alone, or nothing: cauchy_norm_const(inf)
    # was NaN and cauchy_norm_const(1000) a bare OverflowError (c_beta is
    # past the doubles from beta of about 98), and the basis and the
    # assembly warned 'invalid value' at beta = 1e308 and inf
    grid = HalfPlaneGrid.logarithmic(-1.0, 1.0, 8, 0.5, 2.0, 8)
    F = HalfPlaneField(grid, np.ones((8, 8)))
    for beta in (math.inf, 1e308, -1.0, math.nan):
        for call in (lambda: cauchy_norm_const(beta), lambda: cauchy_wavelet(beta),
                     lambda: bergman_basis(4, beta, [0.3], [2.0]),
                     lambda: assemble_wavelet_operator(F, beta, 4),
                     lambda: HardySignal.from_disc_coeffs([1.0, 0.5], beta),
                     lambda: disc_basis_frequency(1, beta, [0.5, 2.0]),
                     lambda: extremal_signal_wavelet(0.3, 2.0, beta),
                     lambda: wavelet_disc_coefficients(0.3, 2.0, beta, 3)):
            with pytest.raises(InvalidInputError, match="beta"):
                call()
    for beta in (99.0, 1000.0):
        with pytest.raises(InvalidInputError, match="c_beta is past the doubles"):
            cauchy_norm_const(beta)
    assert cauchy_norm_const(97.0) == pytest.approx(4.14067576e150, rel=1e-8)


def test_transform_grid_rejects_boundary():
    f = cauchy_wavelet(1.0)
    with pytest.raises(InvalidInputError):
        wavelet_transform_grid(f, 1.0, np.array([0.0]), np.array([0.0]))
    with pytest.raises(InvalidInputError):
        HalfPlaneGrid.logarithmic(-1, 1, 8, 0.0, 2.0, 8)
    # NaN or inf points used to come back as NaN entries without complaint
    good_x, good_y = np.array([0.0, 1.0]), np.array([0.5, 2.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError):
            wavelet_transform_grid(f, 1.0, np.array([0.0, bad]), good_y)
        with pytest.raises(InvalidInputError):
            wavelet_transform_grid(f, 1.0, good_x, np.array([0.5, bad]))
    # (y omega)^beta overflows while e^{-y omega} underflows: the row sum is NaN
    with pytest.raises(InvalidInputError):
        wavelet_transform_grid(f, 2.0, good_x, np.array([0.5, 1e300]))


def test_hardy_signal_rejects_non_finite_samples():
    # a NaN omega or an inf weight used to be accepted, and l2_norm gave inf
    om, v, w = np.array([1.0, 2.0]), np.array([1.0, 0.5j]), np.array([0.5, 0.5])
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            HardySignal(np.array([1.0, bad]), v, w)
        with pytest.raises(InvalidInputError):
            HardySignal(om, np.array([1.0, bad]), w)
        with pytest.raises(InvalidInputError):
            HardySignal(om, np.array([1.0, complex(0.0, bad)]), w)
        with pytest.raises(InvalidInputError):
            HardySignal(om, v, np.array([0.5, bad]))


def test_halfplane_grid_rejects_bad_edges():
    # out of order x edges used to give negative cell masses
    with pytest.raises(InvalidInputError):
        HalfPlaneGrid(np.array([0.0, 1.0, 0.5]), np.array([1.0, 2.0]))
    for y_edges in ([0.0, 1.0], [-1.0, 1.0], [1.0, np.inf], [1.0, np.nan], [2.0, 1.0]):
        with pytest.raises(InvalidInputError):
            HalfPlaneGrid(np.array([0.0, 1.0]), np.array(y_edges))
    with pytest.raises(InvalidInputError):
        HalfPlaneGrid(np.array([0.0]), np.array([1.0, 2.0]))
    grid = HalfPlaneGrid(np.array([-1.0, 0.0, 2.0]), np.array([0.5, 1.0]))
    assert np.all(grid.cell_masses() > 0)


def test_halfplane_field_rejects_non_finite_values():
    # a NaN entry used to make lp_norm_nu and ess_sup NaN
    grid = HalfPlaneGrid.logarithmic(-1, 1, 2, 0.5, 2.0, 2)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(InvalidInputError):
            HalfPlaneField(grid, np.array([[1.0, bad], [0.0, 1.0]]))


def _low_order_fhat(co, beta, om):
    out = np.zeros_like(om, dtype=complex)
    for k, ck in enumerate(co):
        out += ck * disc_basis_frequency(k, beta, om)
    return out


def _low_order_signals(rng, beta, m):
    cos = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(m)]
    fs = [HardySignal.on_uniform_grid(partial(_low_order_fhat, co, beta), 60.0, 6000)
          for co in cos]
    return cos, fs


def test_transform_isometry_windowed():
    # 10 random low-order signals at beta = 2, in one stacked call; the
    # window holds all but ~1e-5 of the hyperbolic mass there
    beta = 2.0
    cos, fs = _low_order_signals(np.random.default_rng(17), beta, 10)
    got = nu_window_integral(
        lambda xs, ys: np.abs(wavelet_transform_grid(fs, beta, xs, ys)) ** 2)
    assert got.shape == (10,)
    for co, g in zip(cos, got):
        assert g == pytest.approx(float(np.sum(np.abs(co) ** 2)), rel=1e-4)


@pytest.mark.parametrize("seed", range(4))
def test_window_rule_sizing(seed, monkeypatch):
    # verify's windowed-isometry stack (3 signals at beta = 2, drawn as verify
    # draws them): 48 panels in log y give the 96-panel integrals within 1e-12
    beta = 2.0
    _, fs = _low_order_signals(np.random.default_rng(seed), beta, 3)

    def integrals():
        return nu_window_integral(
            lambda xs, ys: np.abs(wavelet_transform_grid(fs, beta, xs, ys)) ** 2)

    got = integrals()
    monkeypatch.setattr(wavelet, "_WINDOW_PANELS_Y", 96)
    fine = integrals()
    assert np.max(np.abs(got - fine) / fine) <= 1e-12


def test_transform_grid_stacked_signals():
    beta = 1.5
    _, fs = _low_order_signals(np.random.default_rng(3), beta, 3)
    xs = np.concatenate([np.linspace(-6.0, 6.0, 25), [0.3, -0.3, 17.0]])
    ys = np.geomspace(0.02, 40.0, 23)
    singles = [wavelet_transform_grid(f, beta, xs, ys) for f in fs]
    # one signal in a list is the same computation as the signal itself
    assert np.array_equal(wavelet_transform_grid(fs[:1], beta, xs, ys), singles[0][None])
    # three at once share the tail cut, set by the largest |f-hat| per
    # frequency, so they agree with single calls to the products' rounding
    stacked = wavelet_transform_grid(fs, beta, xs, ys)
    assert stacked.shape == (3, xs.size, ys.size)
    cb = cauchy_norm_const(beta)
    for f, one, many in zip(fs, singles, stacked):
        yom = ys[:, None] * f.omegas[None, :]
        radial = np.sqrt(ys)[:, None] * yom ** beta * np.exp(-yom)
        abs_b = radial * np.abs(f.weights * f.values) / cb
        assert np.all(np.abs(many - one) <= 1e-15 * abs_b.sum(axis=1)[None, :])
    # a signal on another frequency grid cannot share the products
    other = HardySignal.on_uniform_grid(partial(_low_order_fhat, [1.0], beta), 60.0, 5000)
    with pytest.raises(InvalidInputError):
        wavelet_transform_grid([fs[0], other], beta, xs, ys)
    with pytest.raises(InvalidInputError):
        wavelet_transform_grid([], beta, xs, ys)


def test_window_integral_of_a_stack():
    rng = np.random.default_rng(0)
    stack = {}

    def draw(xs, ys):
        stack["v"] = rng.normal(size=(3, xs.size, ys.size))
        return stack["v"]

    got = nu_window_integral(draw)
    assert got.shape == (3,)
    # one integrand gives a numpy value of shape (), not a Python float
    singles = [nu_window_integral(lambda xs, ys, j=j: stack["v"][j]) for j in range(3)]
    assert all(one.shape == () for one in singles)
    assert list(got) == singles


def _window_nodes():
    nodes = []

    def capture(xs, ys):
        nodes.append((xs, ys))
        return np.zeros((xs.size, ys.size))

    nu_window_integral(capture)
    return nodes[0]


_WINDOW_XS, _WINDOW_YS = _window_nodes()


@st.composite
def _transform_cases(draw):
    beta = draw(st.sampled_from([0.5, 2.0]))
    co = np.array(draw(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                                   allow_infinity=False),
                                min_size=1, max_size=5)))
    kind = draw(st.sampled_from(["laguerre", "uniform", "chunked"]))
    if kind == "laguerre":
        f = HardySignal.from_disc_coeffs(co, beta)
    else:
        # uniform: spacing 0.15, so at y = 1e4 every e^{-y omega} underflows
        # to 0; chunked: verify's 6000 frequencies, several chunks and a rest
        f = HardySignal.on_uniform_grid(
            lambda om: sum(c * disc_basis_frequency(k, beta, om) for k, c in enumerate(co)),
            60.0, 400 if kind == "uniform" else 6000)
    if draw(st.booleans()):
        perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(f.omegas.size)
        f = HardySignal(f.omegas[perm], f.values[perm], f.weights[perm])
    point = st.floats(-30.0, 30.0, allow_nan=False)
    xs = draw(st.one_of(st.just(_WINDOW_XS),
                        st.lists(st.one_of(point, st.sampled_from([0.0, -0.0, 1.5, -1.5])),
                                 min_size=1, max_size=12).map(np.array)))
    ys = draw(st.one_of(st.just(_WINDOW_YS),
                        st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                                 min_size=1, max_size=8).map(np.array)))
    return f, kind, beta, xs, np.append(ys, 1e4)


@settings(max_examples=60, deadline=None)
@given(_transform_cases())
def test_transform_matches_reference_sum(case):
    # the direct formula, one complex exponential per (x, omega) and one
    # complex product over all frequencies, within 1e-14 of each row's sum |B|
    f, kind, beta, xs, ys = case
    om = f.omegas
    radial = np.sqrt(ys)[:, None] * (ys[:, None] * om) ** beta * np.exp(-ys[:, None] * om)
    B = radial * (f.weights * f.values / cauchy_norm_const(beta))
    want = np.exp(1j * np.outer(xs, om)) @ B.T
    row_sum = np.sum(np.abs(B), axis=1)
    got = wavelet_transform_grid(f, beta, xs, ys)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * row_sum)
    if kind == "uniform":
        assert row_sum[-1] == 0.0 and np.all(got[:, -1] == 0.0)
    if kind == "chunked":
        assert om.size > 2 * wavelet._FREQ_CHUNK and om.size % wavelet._FREQ_CHUNK


def test_transform_memory_is_bounded_by_chunks():
    # verify's windowed stack, 3 signals x 6000 frequencies on the window
    # nodes: one (n_x x n_omega) trig table alone would take 23 MB
    _, fs = _low_order_signals(np.random.default_rng(0), 2.0, 3)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = wavelet_transform_grid(fs, 2.0, _WINDOW_XS, _WINDOW_YS)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert out.shape == (3, _WINDOW_XS.size, _WINDOW_YS.size)
    assert peak < 20 * 2**20


def test_reproducing_peak_location():
    # the transform of the translated-dilated wavelet peaks at its center
    from phasebound.extremals import extremal_signal_wavelet
    beta, x0, y0 = 1.0, 0.6, 1.3
    f = extremal_signal_wavelet(x0, y0, beta)
    grid = HalfPlaneGrid.logarithmic(-2.5, 3.5, 192, 0.2, 6.0, 192)
    field = wavelet_transform(f, beta, grid)
    i, j = np.unravel_index(np.argmax(np.abs(field.values)), field.values.shape)
    assert abs(grid.x[i] - x0) < 0.05
    assert abs(grid.y[j] - y0) / y0 < 0.05


def test_narrow_bump_transform_x_independent():
    # a single frequency has an x-independent modulus; residual variation
    # scales with the bump width
    om0 = 3.0
    f = HardySignal.on_uniform_grid(
        lambda om: np.exp(-((om - om0) / 0.005) ** 2), 8.0, 16000)
    vals = np.abs(wavelet_transform_grid(f, 1.0, np.linspace(-2, 2, 7), np.array([0.7, 1.8])))
    assert np.max(np.std(vals, axis=0) / np.mean(vals, axis=0)) < 1e-4


# ---------------------------------------------------------------------------
# hyperbolic discs
# ---------------------------------------------------------------------------

def test_disc_threshold_and_membership():
    # the hyperbolic disc about i is the indicator profile: its edge is the
    # threshold on the Cayley quotient q = |(z - i)/(z + i)|^2
    s = 4 * math.pi * (math.e - 1.0)
    disc = DiscProfile.indicator(1.0, s)
    assert disc.edge == pytest.approx(1 - 1 / math.e, abs=1e-14)
    grid = HalfPlaneGrid.logarithmic(-4, 4, 256, 0.05, 20.0, 256)
    mask = disc.on_grid(grid)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    q = np.abs((X + 1j * Y - 1j) / (X + 1j * Y + 1j)) ** 2
    inside = mask.values.real.astype(bool)
    assert inside[np.unravel_index(np.argmin(q), q.shape)]   # the centre is inside
    assert np.all(q[inside] < disc.edge)
    assert np.all(q[~inside] >= disc.edge)


def _moebius_grid(z0, n):
    # verify's grid about the disc of measure 1 centered at z0
    r2 = DiscProfile.indicator(1.0, 1.0, center=z0).edge
    yc = z0.imag * (1 + r2) / (1 - r2)
    rad = 2 * math.sqrt(r2) * z0.imag / (1 - r2)
    return HalfPlaneGrid.logarithmic(z0.real - 1.4 * rad, z0.real + 1.4 * rad, n,
                                     (yc - rad) * 0.72, (yc + rad) * 1.4, n)


@pytest.mark.parametrize("z0, grid", [
    (1j, HalfPlaneGrid.logarithmic(-0.8, 0.8, 512, 0.42, 2.1, 512)),
    (0.4 + 1.6j, _moebius_grid(0.4 + 1.6j, 384)),
])
def test_disc_grid_coordinate_matches_cayley_quotient(z0, grid):
    # verify's disc grids: the separable quotient of real squares against
    # |(z - z0) / (z - conj z0)|^2 in complex arithmetic
    disc = DiscProfile.indicator(1.0, 1.0, center=z0)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    z = X + 1j * Y
    q = np.abs((z - z0) / (z - np.conj(z0))) ** 2
    assert np.max(np.abs(disc.setting.grid_coordinate(z0, grid) - q)) <= 4e-16
    # a real mask is stored at 8 bytes a cell
    values = disc.on_grid(grid).values
    assert values.nbytes == grid.x.size * grid.y.size * 8
    assert np.array_equal(values, disc(q))


def test_disc_mask_empty_and_measure():
    grid = HalfPlaneGrid.logarithmic(-1, 1, 128, 0.3, 3.0, 128)
    tiny = DiscProfile.indicator(1.0, 1e-9)
    assert abs(tiny.edge - 1e-9 / (1e-9 + 4 * math.pi)) <= math.ulp(tiny.edge)
    assert np.count_nonzero(tiny.on_grid(grid).values) == 0
    grid = HalfPlaneGrid.logarithmic(-0.8, 0.8, 512, 0.42, 2.1, 512)
    mask = DiscProfile.indicator(1.0, 1.0).on_grid(grid)
    measure = float(np.sum(mask.values.real * grid.cell_masses()))
    assert measure == pytest.approx(1.0, rel=1e-2)


# ---------------------------------------------------------------------------
# Bergman spectra
# ---------------------------------------------------------------------------

def test_disc_indicator_identity():
    for beta in (0.5, 1.0, 2.0, 5.0):
        for s in np.geomspace(0.05, 50.0, 20):
            rho = DiscProfile.indicator(1.0, float(s))
            lam0 = bergman_radial_eigenvalues(rho, beta, 2).eigenvalues[0]
            assert abs(lam0 - G_beta(float(s), beta)) < 1e-12
    spec = bergman_radial_eigenvalues(DiscProfile.indicator(1.0, 1.0), 1.0, 4)
    assert spec.eigenvalues[0] == pytest.approx(0.14198995239832093, abs=1e-12)


# the sparse grid of the Beta-sum pins: k, b = 2 beta, and measures s from
# 1e-300 to 1e6, plus s = 9300 (x = 0.99865), where at b = 0.1, k = 199 the
# complement is just above 0.9 and the tail is the longest summed
_SUM_KS = (0, 1, 7, 47, 199)
_SUM_BS = (0.1, 1.0, 7.3, 150.0, 2000.0)
_SUM_S = (1e-300, 1e-6, 0.3, 12.6, 1e3, 9300.0, 1e6)


def _disc_sums(K, s, b):
    """1 - I_x(k + 1, b) and I_x(k + 1, b), k < K, in the nu-measure s (a
    float or a row): the sums of ``Disc(b / 2)``."""
    return Disc(b / 2).sums(K, s)


def test_beta_cdf_matches_mpmath():
    # I_x(k + 1, b) at x = s / (s + 4 pi), and its complement, against
    # 30-digit mpmath at the same double s and 4 pi.  Budget 8 + k + b ulps:
    # t = 4 pi / (s + 4 pi) carries two roundings, which t^b scales by b
    # (measured at most b / 4 ulps); the k ratio steps add a few ulps each,
    # mostly cancelling; and 1 - C at C <= 0.9 magnifies C's error by at
    # most 9.  The worst seen is 11 ulps, at k = 0, b = 7.3, s = 0.3.  The
    # complement is mpmath's upper integral by symmetry, I_{1-x}(b, k + 1):
    # betainc(k + 1, b, x, 1) cancels near x = 1
    eps = np.finfo(float).eps
    for b in _SUM_BS:
        for s in _SUM_S:
            comp, got = _disc_sums(200, s, b)
            with mpmath.workdps(30):
                x = mpmath.mpf(s) / (mpmath.mpf(s) + mpmath.mpf(FOUR_PI))
                want = [(float(mpmath.betainc(k + 1, b, 0, x, regularized=True)),
                         float(mpmath.betainc(b, k + 1, 0, 1 - x, regularized=True)))
                        for k in _SUM_KS]
            for k, pair in zip(_SUM_KS, want):
                for g, w in zip((got[k, 0], comp[k, 0]), pair):
                    if w >= sys.float_info.min:
                        assert abs(g - w) <= (8 + k + b) * eps * w, (k, b, s)
                    else:
                        assert 0.0 <= g < 2.0 * sys.float_info.min, (k, b, s)
        # s = 0: every CDF is exactly 0, as a sampled profile's first knot
        # needs, and every complement exactly 1
        comp, got = _disc_sums(200, 0.0, b)
        assert np.all(got == 0.0) and np.all(comp == 1.0)
    # a row of measures gives one column per measure, bitwise as the measure
    # alone, for the plane's sums as for the disc's; the 512-knot row mixes
    # tails of a few terms with the longest, at s = 9300
    long_row = np.append(np.geomspace(1e-3, 1e5, 511), 9300.0)
    for sums, row in ((lambda s: _disc_sums(8, s, 3.0), np.array(_SUM_S)),
                      (lambda s: Plane(1).sums(8, s), np.array(_SUM_S)),
                      (lambda s: _disc_sums(200, s, 0.1), long_row)):
        cols = sums(row)
        for i, s in enumerate(row.tolist()):
            for c, one in zip(cols, sums(s)):
                assert c.shape == (one.shape[0], row.size)
                assert np.array_equal(c[:, i], one[:, 0]), s


def test_beta_cdf_at_small_beta_near_the_boundary():
    # at 2 beta < 0.02 and x within 2^-10 of 1 (at s = 1e40, x rounds to 1)
    # the tail would take 1e4 to 1e40 terms, and I stays 1 - C; I is about
    # b log(1 / (t K)) there, so the budget gains 1 / b ulps.  The worst seen
    # is 0.2 / b ulps
    eps = np.finfo(float).eps
    for b in (1e-3, 1e-2):
        for s in (1e4, 1e12, 1e40):
            got = _disc_sums(200, s, b)[1][:, 0]
            with mpmath.workdps(80):
                x = mpmath.mpf(s) / (mpmath.mpf(s) + mpmath.mpf(FOUR_PI))
                want = [float(mpmath.betainc(k + 1, b, 0, x, regularized=True))
                        for k in _SUM_KS]
            for k, w in zip(_SUM_KS, want):
                assert abs(got[k] - w) <= (8 + k + 1 / b) * eps * w, (k, b, s)


def test_beta_ratio_matches_mpmath():
    # B(k + 1, b + e) / B(k + 1, b) as the product of its k + 1 ratios:
    # each factor rounds three times, so the budget is 3 (k + 1) ulps (the
    # worst seen is 0.5 (k + 1))
    eps = np.finfo(float).eps
    for b in _SUM_BS:
        for shift in (-0.5 * b, 0.5, 3.0, 300.0):
            got = Disc(b / 2).ratios(200, shift)
            for k in _SUM_KS:
                with mpmath.workdps(30):
                    want = float(mpmath.beta(k + 1, b + shift) / mpmath.beta(k + 1, b))
                assert abs(got[k] - want) <= 3 * (k + 1) * eps * want, (k, b, shift)


def test_constant_symbol_all_ones():
    spec = bergman_radial_eigenvalues(DiscProfile.constant(1.0), 1.0, 6)
    assert spec.eigenvalues == pytest.approx(np.ones(6))


def test_extremal_profile_saturates():
    c = ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0)
    rep = wavelet_bound(c)
    rho = DiscProfile.power(rep.lam, 1.0 / c.alpha)
    lam0 = bergman_radial_eigenvalues(rho, 1.0, 8).eigenvalues[0]
    assert lam0 == pytest.approx(W_SUBCRIT_P2_B1, abs=1e-12)
    assert rho.lp_norm(2.0) == pytest.approx(1.0, abs=1e-12)
    # the truncated extremal's amplitude^p overflowed here; its norm takes cap^p out
    c = ConstraintSet(18.7, 1.0, 115.0, "wavelet", beta=7.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert extremal_weight_wavelet(c).lp_norm(c.p) == pytest.approx(115.0, rel=1e-12)


def _truncated_power_norm(amplitude, exponent, cap, p):
    """(int min(a (1 - x)^e, cap)^p d nu)^{1/p} in 50 digits: cap^p times
    the nu-measure 4 pi (1 - t) / t of the capped disc x < 1 - t, plus the
    tail int a^p (1 - x)^{p e} 4 pi (1 - x)^{-2} dx = 4 pi a^p t^{p e - 1}
    / (p e - 1), with t = (cap / a)^{1/e}."""
    with mpmath.workdps(50):
        a, e, c, p = (mpmath.mpf(v) for v in (amplitude, exponent, cap, p))
        t = (c / a) ** (1 / e)
        total = 4 * mpmath.pi * (c ** p * (1 - t) / t + a ** p * t ** (p * e - 1) / (p * e - 1))
        return float(total ** (1 / p))


@pytest.mark.parametrize("amplitude, exponent, cap, p, rel", [
    (3.0, 2.5, 1.5, 2.0, 1e-15), (1.7, 0.9, 0.3, 1.5, 1e-15), (5.0, 3.0, 4.999, 1.0, 1e-15),
    (2.0, 0.6, 1.0, 2.0, 1e-15),
    # t = (cap / a)^{1/e} underflows to 0
    (1e300, 0.5, 1.0, 3.0, 1e-13),
    # cap e^{(log 4 pi - log t + log(q - t)) / p}: the exponential alone overflows
    (1e300, 1.0, 1e-300, 1.5, 1e-13)])
def test_truncated_power_lp_norm_matches_mpmath(amplitude, exponent, cap, p, rel):
    norm = DiscProfile.truncated_power(amplitude, exponent, cap).lp_norm(p)
    assert norm == pytest.approx(_truncated_power_norm(amplitude, exponent, cap, p), rel=rel)


def test_eigenvalues_require_centered_symbol():
    rho = DiscProfile.indicator(1.0, 1.0, center=0.5 + 2j)
    with pytest.raises(RegimeError):
        bergman_radial_eigenvalues(rho, 1.0, 4)


@pytest.mark.parametrize("beta", [math.inf, 1e308])
def test_disc_spectra_refuse_beta_past_the_doubles(beta):
    # b = 2 beta overflows at 1e308, and inf is no order at all: every kind's
    # spectrum but the constant's was NaN, with RuntimeWarnings from the sums
    for prof in (DiscProfile.indicator(1.0, 2.0), DiscProfile.power(1.0, 2.0),
                 DiscProfile.truncated_power(2.0, 2.0, 1.0), DiscProfile.constant(1.0),
                 DiscProfile.sampled([0.5], [1.0])):
        with pytest.raises(InvalidInputError, match="beta"):
            bergman_radial_eigenvalues(prof, beta, 3)
    # the check is the spectral law's: a p = 1 bound at such a beta stays finite
    if beta < math.inf:
        assert wavelet_bound(ConstraintSet(1, 1, 2, "wavelet", beta=beta)).bound == 1.0
    # at 1e307, 2 beta is a double and every eigenvalue reaches its limit 1
    assert np.all(bergman_radial_eigenvalues(DiscProfile.power(1.0, 2.0), 1e307, 3)
                  .eigenvalues == 1.0)


def test_power_profile_integrability_flag():
    # a profile rising toward the boundary must satisfy exponent > -2 beta
    rho = DiscProfile.power(1.0, -1.5)
    with pytest.raises(DivergenceError):
        bergman_radial_eigenvalues(rho, 0.5, 4)
    with pytest.raises(DivergenceError):
        DiscProfile.power(1.0, 0.25).lp_norm(2.0)  # p * exponent <= 1
    # the truncated kind diverges alike; at p * exponent < 1 and = 1 it
    # raised a bare TypeError (a complex power) and ZeroDivisionError
    for exponent in (0.4, 0.5):
        with pytest.raises(DivergenceError):
            DiscProfile.truncated_power(2.0, exponent, 1.0).lp_norm(2.0)
    with pytest.raises(DivergenceError):
        DiscProfile.constant(1.0).lp_norm(1.0)


# ---------------------------------------------------------------------------
# assembly on the half-plane
# ---------------------------------------------------------------------------

def test_assembly_constant_is_identity():
    grid = HalfPlaneGrid.logarithmic(-60, 60, 512, 1e-3, 1e3, 512)
    ones = DiscProfile.constant(1.0).on_grid(grid)
    M = assemble_wavelet_operator(ones, 2.0, 4)
    assert np.max(np.abs(M - np.eye(4))) < 2e-3


def test_assembly_disc_indicator():
    disc = DiscProfile.indicator(1.0, 1.0)
    r2 = disc.edge
    yc = (1 + r2) / (1 - r2)
    rad = 2 * math.sqrt(r2) / (1 - r2)
    grid = HalfPlaneGrid.logarithmic(-1.3 * rad, 1.3 * rad, 256,
                                     (yc - rad) * 0.75, (yc + rad) * 1.3, 256)
    M = assemble_wavelet_operator(disc.on_grid(grid), 1.0, 12)
    assert np.array_equal(M, M.conj().T)
    top = float(np.sort(np.linalg.eigvalsh(M))[-1])
    assert top == pytest.approx(G_beta(1.0, 1.0), abs=1e-3)
    assert np.max(np.abs(M - np.diag(np.diag(M)))) < 1e-4


def _check_halfplane_gram(kind, grid):
    """Assembly against the term-by-term sum of the phase-bearing, recentred
    basis over the cell centers with their nu masses."""
    z0, beta, K = 0.3 + 1.4j, 1.5, 12
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    values = np.exp(-((X - 0.5) ** 2 + (Y - 1.2) ** 2))
    real = values
    if kind == "signed":
        values = values - 0.6 * np.exp(-((X + 1.0) ** 2 + (Y - 2.0) ** 2) / 2)
    elif kind == "complex":
        values = values * np.exp(1j * X)
    elif kind == "zero_imag":
        values = values.astype(complex)
    elif kind == "indicator":
        # zero cells, off the mirror line: some kept cells are zero while
        # their mirror is not
        values = DiscProfile.indicator(1.0, 3.0, center=0.8 + 1.2j).on_grid(grid).values
        assert 0 < np.count_nonzero(values) < values.size
    F = HalfPlaneField(grid, values)
    M = assemble_wavelet_operator(F, beta, K, center=z0)
    phi = bergman_basis(K, beta, X.ravel(), Y.ravel(), center=z0)
    R = (phi * (grid.cell_masses().ravel() * F.values.ravel())) @ phi.conj().T
    assert np.max(np.abs(M - R)) <= 1e-13 * np.max(np.abs(R))
    if kind != "complex":
        assert np.array_equal(M, M.conj().T)
    if kind == "zero_imag":
        assert np.array_equal(M, assemble_wavelet_operator(HalfPlaneField(grid, real),
                                                           beta, K, center=z0))


_HALFPLANE_KINDS = ["nonnegative", "signed", "complex", "zero_imag", "indicator"]


@pytest.mark.parametrize("kind", _HALFPLANE_KINDS)
def test_gram_assembly_matches_reference_sum_halfplane(kind):
    # 96^2 nodes span several Gram blocks; x is not symmetric about
    # Re(z0) = 0.3, so no cell has a mirror
    _check_halfplane_gram(kind, HalfPlaneGrid.logarithmic(-4, 4, 96, 0.1, 8.0, 96))


@pytest.mark.parametrize("kind", _HALFPLANE_KINDS)
@pytest.mark.parametrize("nx", [96, 95])
def test_gram_mirror_fold_matches_reference_sum_halfplane(kind, nx):
    # x symmetric about Re(z0) folds onto 2 Re(z0) - x; at odd nx the middle
    # column is its own mirror
    _check_halfplane_gram(kind, HalfPlaneGrid.logarithmic(0.3 - 4.0, 0.3 + 4.0, nx,
                                                          0.1, 8.0, 96))


def test_moebius_recentering():
    z0 = 0.4 + 1.6j
    disc = DiscProfile.indicator(1.0, 1.0, center=z0)
    r2 = disc.edge
    yc = z0.imag * (1 + r2) / (1 - r2)
    rad = 2 * math.sqrt(r2) * z0.imag / (1 - r2)
    grid = HalfPlaneGrid.logarithmic(z0.real - 1.4 * rad, z0.real + 1.4 * rad, 384,
                                     (yc - rad) * 0.72, (yc + rad) * 1.4, 384)
    mask = disc.on_grid(grid)
    eigs = np.sort(np.linalg.eigvalsh(assemble_wavelet_operator(mask, 1.0, 8, center=z0)))[::-1]
    ref = bergman_radial_eigenvalues(DiscProfile.indicator(1.0, 1.0), 1.0, 8).eigenvalues
    assert np.max(np.abs(eigs - ref)) < 1e-4


# ---------------------------------------------------------------------------
# distribution bound and norm bound for nu-radial symbols
# ---------------------------------------------------------------------------

def test_nu_distribution_bound_equality_radial():
    rng = np.random.default_rng(3)
    for _ in range(5):
        xk = np.sort(rng.uniform(0.02, 0.9, 30))
        vk = np.sort(rng.exponential(1.0, 30))[::-1]
        sym = DiscProfile.sampled(xk, vk)
        beta = float(rng.uniform(0.5, 2.0))
        lam0 = bergman_radial_eigenvalues(sym, beta, 1).eigenvalues[0]
        bound = distribution_bound(sym, partial(G_beta, beta=beta))
        assert lam0 == pytest.approx(bound, abs=1e-12)
        for p in (1.0, 2.0):
            c = ConstraintSet(p, sym.ess_sup(), sym.lp_norm(p), "wavelet", beta=beta)
            assert lam0 <= wavelet_bound(c).bound + 2e-3
    # analytic symbols take the quadrature path of the distribution bound
    for sym in (DiscProfile.indicator(1.3, 2.0), DiscProfile.power(0.7, 3.0),
                DiscProfile.truncated_power(2.0, 3.0, 1.1)):
        for beta in (0.5, 1.0, 2.0):
            lam0 = bergman_radial_eigenvalues(sym, beta, 1).eigenvalues[0]
            bound = distribution_bound(sym, partial(G_beta, beta=beta))
            assert lam0 == pytest.approx(bound, rel=1e-10)


def test_norm_bound_random_halfplane_fields():
    rng = np.random.default_rng(8)
    grid = HalfPlaneGrid.logarithmic(-4, 4, 96, 0.1, 8.0, 96)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    for _ in range(3):
        vals = np.zeros_like(X)
        for _ in range(3):
            cx = rng.uniform(-2, 2)
            cy = rng.uniform(0.4, 4.0)
            w = rng.uniform(0.2, 1.0)
            vals += rng.uniform(0.2, 1.0) * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * w * w))
        field = HalfPlaneField(grid, vals.astype(complex))
        norm = float(np.sort(np.linalg.eigvalsh(
            assemble_wavelet_operator(field, 1.0, 16)))[-1])
        assert norm <= distribution_bound(field, partial(G_beta, beta=1.0)) + 2e-3
        for p in (1.0, 2.0):
            c = ConstraintSet(p, field.ess_sup(), lp_norm_nu(field, p), "wavelet", beta=1.0)
            assert norm <= wavelet_bound(c).bound + 2e-3
