"""Core types, distribution functions, rearrangements and norms."""
import math

import mpmath
import numpy as np
import pytest

from phasebound.core import (RadialProfile, WeightField, decreasing_rearrangement, integrate,
                             lp_norm, schwarz_symmetrize)
from phasebound.errors import (DivergenceError, InvalidInputError,
                               UnattainedBoundError)
from phasebound.scalar import ConstraintSet, Disc, Plane
from phasebound.verify import thresholds
from phasebound.wavelet import DiscProfile, HalfPlaneField, HalfPlaneGrid


def make_field(n=64, half_width=4.0, seed=0):
    rng = np.random.default_rng(seed)
    return WeightField(half_width, n, rng.uniform(0, 1, (n, n)).astype(complex))


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------

def test_weight_field_validation():
    with pytest.raises(InvalidInputError):
        WeightField(1.0, 1, np.zeros((1, 1), complex))
    with pytest.raises(InvalidInputError):
        WeightField(-1.0, 4, np.zeros((4, 4), complex))
    bad = np.zeros((4, 4), complex)
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        WeightField(1.0, 4, bad)
    f = WeightField(2.0, 8, np.ones((8, 8), complex))
    assert f.cell_area == pytest.approx((4.0 / 8) ** 2)


def _plane_field(values):
    return WeightField(1.0, 2, values)


def _halfplane_field(values):
    return HalfPlaneField(HalfPlaneGrid.logarithmic(-1, 1, 2, 0.5, 2.0, 2), values)


@pytest.mark.parametrize("make", [_plane_field, _halfplane_field])
def test_grid_field_storage_rule(make):
    # real, bool, integer and zero-imaginary complex values are stored as
    # contiguous float64; a nonzero imaginary part anywhere keeps complex128
    real = np.array([[1.0, 0.5], [0.0, 2.0]])
    for values in (real, real > 0.7, real.astype(int), real.astype(np.float32),
                   real.astype(complex), real[::-1, ::-1]):
        v = make(values).values
        assert v.dtype == np.float64 and v.flags.c_contiguous
        assert np.array_equal(v, values)
    tilted = real + 1e-300j * np.eye(2)
    v = make(tilted).values
    assert v.dtype == np.complex128 and np.array_equal(v, tilted)
    for bad in (complex(0.0, np.inf), complex(np.nan, 0.0)):
        values = real.astype(complex)
        values[0, 1] = bad
        with pytest.raises(InvalidInputError):
            make(values)
    with pytest.raises(InvalidInputError):
        make(np.ones((2, 3)))


@pytest.mark.parametrize("make", [_plane_field, _halfplane_field])
def test_grid_field_owns_its_values(make):
    # a write through the caller's array, or a view of it, after the check
    # cannot reach the field, and the stored values are read-only
    buffer = np.ones(5)
    for values in (np.ones((2, 2)), np.ones((2, 2), complex) + 1j * np.eye(2),
                   buffer[:4].reshape(2, 2)):
        f = make(values)
        values[0, 0] = np.nan
        assert np.all(np.isfinite(f.values))
        assert f.ess_sup() == pytest.approx(math.sqrt(2.0) if np.iscomplexobj(f.values) else 1.0)
        assert math.isfinite(lp_norm(f, 2))
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0


def test_radial_profile_validation():
    # one check serves both settings: a known kind, a finite amplitude and a
    # finite nonzero shape (NaN and inf gave NaN norms, shape 0 a
    # ZeroDivisionError), 0 < cap < amplitude, and an edge and knots inside
    # the coordinate's range
    for cls, setting, center, family, truncated in (
            (RadialProfile, Plane(1), (0.0, 0.0), RadialProfile.gaussian,
             RadialProfile.truncated_gaussian),
            (DiscProfile, Disc, 1j, DiscProfile.power, DiscProfile.truncated_power)):
        bad = [lambda: cls(setting, "nonsense", center=center),
               lambda: truncated(1.0, 1.0, 2.0),  # cap above amplitude
               lambda: truncated(math.inf, 1.0, 1.0),
               lambda: cls.sampled([0.5, 0.25], [1.0, 2.0]),  # knots not increasing
               lambda: cls.sampled([0.25, 0.5], [1.0, 2.0]),  # values increasing
               lambda: cls.constant(math.nan),
               lambda: cls(setting, "indicator", 1.0, edge=0.0, center=center),
               lambda: cls(setting, "indicator", 1.0, edge=setting.coord_max, center=center)]
        bad += [lambda args=args: family(*args) for args in
                ((math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
                 (1.0, math.nan), (1.0, math.inf), (1.0, 0.0))]
        for make in bad:
            with pytest.raises(InvalidInputError):
                make()
        prof = cls.sampled([0.25, 0.5], [2.0, 1.0])
        assert prof(np.array([0.2, 0.4, 0.7])) == pytest.approx([2.0, 1.0, 0.0])
    # the plane's scale is positive; the disc takes a rising power, and its
    # center lies in the upper half-plane
    for make in (lambda: RadialProfile.gaussian(1.0, -1.0),
                 lambda: DiscProfile.power(1.0, 3.0, center=0.5 - 1j)):
        with pytest.raises(InvalidInputError):
            make()
    assert DiscProfile.power(1.0, -1.5).shape == -1.5


@pytest.mark.parametrize("center", [(0.0, 1.0), "1j", None, complex(0.0, math.nan)])
def test_disc_profiles_reject_non_complex_center(center):
    # a tuple, a string or None used to raise a bare AttributeError
    for make in (lambda: DiscProfile.indicator(1.0, 2.0, center=center),
                 lambda: DiscProfile.power(1.0, 2.0, center=center),
                 lambda: DiscProfile.truncated_power(2.0, 2.0, 1.0, center=center),
                 lambda: DiscProfile.constant(1.0, center=center),
                 lambda: DiscProfile.sampled([0.5], [1.0], center=center)):
        with pytest.raises(InvalidInputError, match="upper half-plane"):
            make()
    assert DiscProfile.power(1.0, 2.0, center=np.complex128(0.5 + 2j)).center == 0.5 + 2j


@pytest.mark.parametrize("dim", [1.5, "2", None])
def test_radial_profiles_reject_non_integral_dim(dim):
    # a bare TypeError came from operator.index; numpy's integers stay valid
    makers = (lambda d: RadialProfile.ball(1.0, 2.0, dim=d),
              lambda d: RadialProfile.gaussian(1.0, 2.0, dim=d),
              lambda d: RadialProfile.truncated_gaussian(2.0, 2.0, 1.0, dim=d),
              lambda d: RadialProfile.sampled([0.5], [1.0], dim=d),
              lambda d: RadialProfile.constant(1.0, dim=d))
    for make in makers:
        with pytest.raises(InvalidInputError, match="dim"):
            make(dim)
        assert make(np.int64(2)).setting == Plane(2)


def test_constraint_set_validation():
    with pytest.raises(UnattainedBoundError) as err:
        ConstraintSet(1.0, math.inf, 2.5, "gabor")
    assert err.value.supremum == 2.5
    with pytest.raises(InvalidInputError):
        ConstraintSet(0.5, 1.0, 1.0, "gabor")
    with pytest.raises(InvalidInputError):
        ConstraintSet(2.0, 1.0, math.inf, "gabor")
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor", d=2)
    assert c.kappa == pytest.approx(0.5)
    cw = ConstraintSet(2.0, 1.0, 1.0, "wavelet", beta=1.0)
    assert cw.sigma == pytest.approx(0.2)
    assert cw.alpha == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

def test_distribution_ball_indicator():
    # indicator level sets: mu = area below the amplitude, 0 at and above
    prof = RadialProfile.ball(1.0, 1.7)
    ts = thresholds(prof, 64)
    assert prof.mu(ts[ts < 1.0]) == pytest.approx(1.7)
    assert prof.mu(1.0) == 0.0
    assert prof.mu(2.0) == 0.0


def test_distribution_gaussian_closed_form():
    # mu(t) = -log (t/lam)^{p-1} for the profile lam e^{-pi r^2/(p-1)}
    lam, p = 1.6, 2.5
    prof = RadialProfile.gaussian(lam, p - 1.0)
    ts = thresholds(prof, 256)
    want = np.where(ts < lam, -np.log((ts / lam) ** (p - 1.0)), 0.0)
    assert prof.mu(ts) == pytest.approx(want, abs=1e-12)
    # a peak level near the top of the float range: lam / t overflows for
    # t < lam / DBL_MAX, where mu is still finite
    big = RadialProfile.gaussian(1e300, p - 1.0)
    assert big.mu(np.array([1e-20]))[0] == pytest.approx(
        (p - 1.0) * 320.0 * math.log(10.0), rel=1e-15)


def test_distribution_matches_sort_oracle():
    # grid counting must agree exactly with the sort-based construction
    f = make_field()
    ts = thresholds(f, 128)
    vals = np.sort(np.abs(f.values).ravel())[::-1]
    oracle = np.array([np.count_nonzero(vals > t) * f.cell_area for t in ts])
    assert f.mu(ts) == pytest.approx(oracle, abs=0.0)


def test_distribution_zero_field_and_monotone():
    z = WeightField(1.0, 4, np.zeros((4, 4), complex))
    assert z.ess_sup() == 0.0 and np.all(z.mu([0.0, 1.0]) == 0.0)
    for w in (make_field(seed=3), RadialProfile.gaussian(1.0, 1.0),
              RadialProfile.truncated_gaussian(2.0, 0.7, 1.1)):
        mu = w.mu(thresholds(w, 128))
        assert np.all(np.diff(mu) <= 1e-12)
        assert w.mu(w.ess_sup()) == 0.0
        assert w.mu(w.ess_sup() * 2) == 0.0


def test_distribution_constant_diverges():
    with pytest.raises(DivergenceError):
        RadialProfile.constant(1.0).mu(0.5)


# ---------------------------------------------------------------------------
# rearrangements
# ---------------------------------------------------------------------------

def test_rearrangement_fixed_point_and_indicator():
    dec = np.array([3.0, 2.0, 2.0, 0.5])
    assert decreasing_rearrangement(dec) == pytest.approx(dec)
    # c * indicator of the right half becomes c * indicator of (0, A/2)
    u = np.array([0.0] * 5 + [2.5] * 5)
    assert decreasing_rearrangement(u) == pytest.approx([2.5] * 5 + [0.0] * 5)
    with pytest.raises(InvalidInputError):
        decreasing_rearrangement([1.0, -0.1])


def test_rearrangement_moment_inequality_and_norms():
    # p int t^{p-1} u* dt <= p int t^{p-1} u dt, by exact step sums
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = float(rng.uniform(1.0, 4.0))
        A = float(rng.uniform(0.5, 3.0))
        n = int(rng.integers(4, 50))
        u = rng.exponential(1.0, n)
        ustar = decreasing_rearrangement(u)
        edges = np.linspace(0.0, A, n + 1)
        lhs = float(np.sum(ustar * (edges[1:] ** p - edges[:-1] ** p)))
        rhs = float(np.sum(u * (edges[1:] ** p - edges[:-1] ** p)))
        assert lhs <= rhs + 1e-12
        for q in (1.0, 2.0, 5.0):
            assert np.sum(ustar ** q) == pytest.approx(np.sum(u ** q), rel=1e-12)


def test_schwarz_square_becomes_ball():
    n = 256
    ax = -2.0 + (np.arange(n) + 0.5) * (4.0 / n)
    inside = (np.abs(ax[:, None]) < 0.5) & (np.abs(ax[None, :]) < 0.5)
    field = WeightField(2.0, n, inside.astype(complex))
    star = schwarz_symmetrize(field)
    assert np.all(star.knot_values == 1.0)
    assert star.knots[-1] == pytest.approx(1.0 / math.sqrt(math.pi), abs=2 * field.cell)


def test_schwarz_radial_fixed_point():
    prof = RadialProfile.gaussian(1.0, 1.0)
    field = prof.on_grid(4.0, 128)
    star = schwarz_symmetrize(field)
    rs = np.linspace(0.05, 2.5, 40)
    # within one cell: compare at radii shifted by a cell diagonal
    assert np.all(star(rs) <= prof(np.maximum(rs - field.cell * 1.5, 0.0)) + 1e-9)
    assert np.all(star(rs) >= prof(rs + field.cell * 1.5) - 1e-9)


def test_schwarz_preserves_distribution():
    f = make_field(seed=5)
    star = schwarz_symmetrize(f)
    ts = thresholds(f, 96)
    assert np.max(np.abs(f.mu(ts) - star.mu(ts))) <= f.cell_area + 1e-12
    assert np.all(np.diff(star.knot_values) <= 0.0)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_lp_norm_closed_forms():
    assert lp_norm(RadialProfile.ball(2.0, 1.5), 1.0) == pytest.approx(3.0)
    assert lp_norm(RadialProfile.gaussian(1.3, 1.0), 2.0) == pytest.approx(1.3 / math.sqrt(2))
    # the supercritical extremal saturates the L^2 budget
    tr = RadialProfile.truncated_gaussian(math.exp(0.5), 1.0, 1.0)
    assert lp_norm(tr, 2.0) == pytest.approx(1.0, abs=1e-12)


# per setting: (profile, p) cases, the measure density ds/dcoord, the upper
# end of the coordinate, quad's subinterval limit and the tolerance
_LP_QUADRATURE = {
    "plane": ([(RadialProfile.gaussian(1.2, 1.7), 2.0),
               (RadialProfile.truncated_gaussian(2.0, 0.9, 1.3), 1.5),
               (RadialProfile.ball(1.4, 0.8), 3.0)],
              lambda r: 2 * math.pi * r, 12.0, 200, 1e-9),
    "disc": ([(DiscProfile.power(0.7, 3.0), 2.0),
              (DiscProfile.truncated_power(2.0, 3.0, 1.1), 1.5),
              (DiscProfile.indicator(1.3, 2.0), 1.0)],
             lambda x: 4 * math.pi / (1 - x) ** 2, 1.0 - 1e-12, 300, 1e-8),
}


@pytest.mark.parametrize("setting", ["plane", "disc"])
def test_profile_lp_norm_quadrature(setting):
    from scipy.integrate import quad
    cases, ds, upper, limit, rel = _LP_QUADRATURE[setting]
    for prof, p in cases:
        def dens(t):
            return float(prof(np.atleast_1d(t))[0]) ** p * ds(t)
        breaks = [prof.edge] if prof.kind == "indicator" else None
        val, _ = quad(dens, 0.0, upper, points=breaks, limit=limit)
        assert lp_norm(prof, p) == pytest.approx(val ** (1 / p), rel=rel)


def test_lp_norm_divergence_and_grid():
    with pytest.raises(DivergenceError):
        lp_norm(RadialProfile.constant(1.0), 2.0)
    f = make_field(seed=2)
    want = (np.sum(np.abs(f.values) ** 2) * f.cell_area) ** 0.5
    assert lp_norm(f, 2.0) == pytest.approx(want)


def _mp_lp(values, masses, p):
    """(sum |v|^p m)^{1/p} in 50-digit arithmetic."""
    with mpmath.workdps(50):
        total = mpmath.fsum(_mp(abs(v)) ** p * _mp(m)
                            for v, m in zip(np.ravel(values), np.ravel(masses)))
        return float(total ** (1 / mpmath.mpf(p)))


@pytest.mark.parametrize("levels, p", [((1e200, 1e199), 2.0), ((1e-200, 1e-201), 2.0),
                                       ((3.0, 2.0), 700.0), ((0.0, 0.0), 2.0)])
def test_lp_norm_of_extreme_weights(levels, p):
    # |v|^p m summed directly overflows at 1e200 and at p = 700, and
    # underflows to 0 at 1e-200; every norm here is a double
    hi, lo = levels
    halfplane = _halfplane_field([[hi, lo], [lo, 0.0]])
    weights = [
        (RadialProfile.sampled([0.5, 1.0], levels), [levels, [math.pi / 4, 3 * math.pi / 4]]),
        (DiscProfile.sampled([0.5, 0.75], levels), [levels, [4 * math.pi, 8 * math.pi]]),
        (_plane_field([[hi, lo], [lo, 0.0]]), [[hi, lo, lo], [1.0, 1.0, 1.0]]),
        (halfplane, [halfplane.values, halfplane.cell_masses()]),
    ]
    for w, (vals, masses) in weights:
        assert lp_norm(w, p) == pytest.approx(_mp_lp(vals, masses, p), rel=1e-14, abs=0.0)



# ---------------------------------------------------------------------------
# the panel rule
# ---------------------------------------------------------------------------

def _mp(x):
    return mpmath.mpf(float(x))


# (numpy integrand, mpmath integrand, b, breaks): the shapes the oracles meet
_RULE_CASES = {
    # mu of a Gaussian in d = 1, 2, 3 dimensions: a log^d endpoint at t = 0
    **{f"gaussian-mu-d{d}": (
        lambda t, d=d: (1.3 * np.log(0.8 / t)) ** d / math.factorial(d),
        lambda t, d=d: (_mp(1.3) * mpmath.log(_mp(0.8) / t)) ** d / math.factorial(d),
        0.8, ()) for d in (1, 2, 3)},
    # the constraint moment p t^{p-1} mu(t) at p - 1 = 1e-3
    "moment-p-1.001": (
        lambda t: 1.001 * t ** 0.001 * 1.7 * np.log(2.0 / t),
        lambda t: _mp(1.001) * t ** _mp(0.001) * _mp(1.7) * mpmath.log(2 / t),
        1.0, ()),
    "kink-at-break": (
        lambda t: np.abs(t - 0.7) * np.exp(-t),
        lambda t: abs(t - _mp(0.7)) * mpmath.exp(-t),
        2.0, (0.7,)),
    "jump-at-break": (
        lambda t: np.where(t < 0.3, 2.0, 0.5) * np.cos(t),
        lambda t: (2 if t < _mp(0.3) else _mp(0.5)) * mpmath.cos(t),
        2.0, (0.3,)),
}


def _rounding(ref):
    # nonnegative terms, each evaluated to a few ulps, summed: 32 ulps of the value
    return 32.0 * np.finfo(float).eps * ref


@pytest.mark.parametrize("name", sorted(_RULE_CASES))
def test_integrate_against_mpmath(name):
    f, f_mp, b, breaks = _RULE_CASES[name]
    with mpmath.workdps(30):
        ref = float(mpmath.quad(f_mp, [0, *map(_mp, breaks), _mp(b)]))
    value, error = integrate(f, b, breaks)
    assert abs(value - ref) <= error + _rounding(ref)


@pytest.mark.parametrize("k", [0, 1, 10, 50, 100, 150, 199])
def test_integrate_gamma_density(k):
    # s^k e^{-s} / k! on (0, upper) as gabor's Gamma averages lay it out,
    # written about m = max(k, 1) so the density itself is good to a few ulps
    m = max(k, 1)
    upper = k + 1 + 40.0 * math.sqrt(k + 1.0) + 40.0
    with mpmath.workdps(30):
        C = float(mpmath.mpf(m) ** k * mpmath.exp(-m) / mpmath.factorial(k))
        ref = float(mpmath.gammainc(k + 1, 0, upper, regularized=True))
    value, error = integrate(lambda s: C * np.exp(k * np.log(s / m) - (s - m)), upper)
    assert abs(value - ref) <= error + _rounding(ref)


def test_integrate_flags_divergence():
    # 1/t gains log 2 on (0, 1) with every halving of the panel at 0
    with pytest.raises(DivergenceError):
        integrate(lambda t: 1.0 / t, 1.0)
