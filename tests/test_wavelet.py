"""Cauchy wavelet transform, hyperbolic geometry, Bergman spectra."""
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound.bounds import G_beta, wavelet_bound
from phasebound.core import ConstraintSet, distribution_bound
from phasebound.errors import DivergenceError, InvalidInputError, RegimeError
from phasebound.wavelet import (DiscProfile, HalfPlaneField, HalfPlaneGrid,
                                HardySignal, HyperbolicDisc,
                                assemble_wavelet_operator,
                                bergman_basis, bergman_radial_eigenvalues,
                                cauchy_norm_const, cauchy_wavelet,
                                disc_basis_frequency,
                                hyperbolic_disc_mask, lp_norm_nu,
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
    assert list(got) == [nu_window_integral(lambda xs, ys, j=j: stack["v"][j]) for j in range(3)]


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
    kind = draw(st.sampled_from(["laguerre", "uniform"]))
    if kind == "laguerre":
        f = HardySignal.from_disc_coeffs(co, beta)
    else:
        # spacing 0.15: at y = 1e4 every e^{-y omega} underflows to 0
        f = HardySignal.on_uniform_grid(
            lambda om: sum(c * disc_basis_frequency(k, beta, om) for k, c in enumerate(co)),
            60.0, 400)
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
    s = 4 * math.pi * (math.e - 1.0)
    disc = HyperbolicDisc(1j, s)
    assert disc.threshold == pytest.approx(1 - 1 / math.e, abs=1e-14)
    assert disc.contains(np.array([1j]))[0]
    grid = HalfPlaneGrid.logarithmic(-4, 4, 256, 0.05, 20.0, 256)
    mask = hyperbolic_disc_mask(disc, grid)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    q = np.abs((X + 1j * Y - 1j) / (X + 1j * Y + 1j)) ** 2
    inside = mask.values.real.astype(bool)
    assert np.all(q[inside] < disc.threshold)
    assert np.all(q[~inside] >= disc.threshold)


def test_disc_mask_empty_and_measure():
    grid = HalfPlaneGrid.logarithmic(-1, 1, 128, 0.3, 3.0, 128)
    tiny = hyperbolic_disc_mask(HyperbolicDisc(1j, 1e-9), grid)
    assert np.count_nonzero(tiny.values) == 0
    disc = HyperbolicDisc(1j, 1.0)
    grid = HalfPlaneGrid.logarithmic(-0.8, 0.8, 512, 0.42, 2.1, 512)
    mask = hyperbolic_disc_mask(disc, grid)
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


def test_eigenvalues_require_centered_symbol():
    rho = DiscProfile.indicator(1.0, 1.0, center=0.5 + 2j)
    with pytest.raises(RegimeError):
        bergman_radial_eigenvalues(rho, 1.0, 4)


def test_power_profile_integrability_flag():
    # a profile rising toward the boundary must satisfy exponent > -2 beta
    rho = DiscProfile.power(1.0, -1.5)
    with pytest.raises(DivergenceError):
        bergman_radial_eigenvalues(rho, 0.5, 4)
    with pytest.raises(DivergenceError):
        DiscProfile.power(1.0, 0.25).lp_norm(2.0)  # p * exponent <= 1
    with pytest.raises(DivergenceError):
        DiscProfile.constant(1.0).lp_norm(1.0)


def test_disc_profile_lp_norm_quadrature():
    from scipy.integrate import quad
    for rho, p in ((DiscProfile.power(0.7, 3.0), 2.0),
                   (DiscProfile.truncated_power(2.0, 3.0, 1.1), 1.5),
                   (DiscProfile.indicator(1.3, 2.0), 1.0)):
        def dens(x):
            return float(rho(np.atleast_1d(x))[0]) ** p * 4 * math.pi / (1 - x) ** 2
        pts = [rho.x_threshold] if rho.kind == "disc_indicator" else None
        val, _ = quad(dens, 0.0, 1.0 - 1e-12, points=pts, limit=300)
        assert rho.lp_norm(p) == pytest.approx(val ** (1 / p), rel=1e-8)


# ---------------------------------------------------------------------------
# assembly on the half-plane
# ---------------------------------------------------------------------------

def test_assembly_constant_is_identity():
    grid = HalfPlaneGrid.logarithmic(-60, 60, 512, 1e-3, 1e3, 512)
    ones = DiscProfile.constant(1.0).on_grid(grid)
    M = assemble_wavelet_operator(ones, 2.0, 4)
    assert np.max(np.abs(M - np.eye(4))) < 2e-3


def test_assembly_disc_indicator():
    disc = HyperbolicDisc(1j, 1.0)
    r2 = disc.threshold
    yc = (1 + r2) / (1 - r2)
    rad = 2 * math.sqrt(r2) / (1 - r2)
    grid = HalfPlaneGrid.logarithmic(-1.3 * rad, 1.3 * rad, 256,
                                     (yc - rad) * 0.75, (yc + rad) * 1.3, 256)
    mask = hyperbolic_disc_mask(disc, grid)
    M = assemble_wavelet_operator(mask, 1.0, 12)
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
    if kind == "signed":
        values = values - 0.6 * np.exp(-((X + 1.0) ** 2 + (Y - 2.0) ** 2) / 2)
    elif kind == "complex":
        values = values * np.exp(1j * X)
    F = HalfPlaneField(grid, values)
    M = assemble_wavelet_operator(F, beta, K, center=z0)
    phi = bergman_basis(K, beta, X.ravel(), Y.ravel(), center=z0)
    R = (phi * (grid.cell_masses().ravel() * F.values.ravel())) @ phi.conj().T
    assert np.max(np.abs(M - R)) <= 1e-13 * np.max(np.abs(R))
    if kind != "complex":
        assert np.array_equal(M, M.conj().T)


@pytest.mark.parametrize("kind", ["nonnegative", "signed", "complex"])
def test_gram_assembly_matches_reference_sum_halfplane(kind):
    # 96^2 nodes span several Gram blocks; x is not symmetric about
    # Re(z0) = 0.3, so no cell has a mirror
    _check_halfplane_gram(kind, HalfPlaneGrid.logarithmic(-4, 4, 96, 0.1, 8.0, 96))


@pytest.mark.parametrize("kind", ["nonnegative", "signed", "complex"])
@pytest.mark.parametrize("nx", [96, 95])
def test_gram_mirror_fold_matches_reference_sum_halfplane(kind, nx):
    # x symmetric about Re(z0) folds onto 2 Re(z0) - x; at odd nx the middle
    # column is its own mirror
    _check_halfplane_gram(kind, HalfPlaneGrid.logarithmic(0.3 - 4.0, 0.3 + 4.0, nx,
                                                          0.1, 8.0, 96))


def test_moebius_recentering():
    z0 = 0.4 + 1.6j
    disc = HyperbolicDisc(z0, 1.0)
    r2 = disc.threshold
    yc = z0.imag * (1 + r2) / (1 - r2)
    rad = 2 * math.sqrt(r2) * z0.imag / (1 - r2)
    grid = HalfPlaneGrid.logarithmic(z0.real - 1.4 * rad, z0.real + 1.4 * rad, 384,
                                     (yc - rad) * 0.72, (yc + rad) * 1.4, 384)
    mask = hyperbolic_disc_mask(disc, grid)
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
