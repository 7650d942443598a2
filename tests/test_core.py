"""Core types, distribution functions, rearrangements and norms."""
import math

import numpy as np
import pytest

from phasebound.core import (ConstraintSet, RadialProfile, WeightField,
                             decreasing_rearrangement, lp_norm, schwarz_symmetrize)
from phasebound.errors import (DivergenceError, InvalidInputError,
                               UnattainedBoundError)
from phasebound.verify import thresholds


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


def test_radial_profile_validation():
    with pytest.raises(InvalidInputError):
        RadialProfile("nonsense")
    with pytest.raises(InvalidInputError):
        RadialProfile.truncated_gaussian(1.0, 1.0, 2.0)  # cap above amplitude
    with pytest.raises(InvalidInputError):
        RadialProfile.sampled([1.0, 0.5], [1.0, 2.0])  # knots not increasing
    with pytest.raises(InvalidInputError):
        RadialProfile.sampled([0.5, 1.0], [1.0, 2.0])  # values increasing
    prof = RadialProfile.sampled([0.5, 1.0], [2.0, 1.0])
    assert prof(np.array([0.2, 0.7, 3.0])) == pytest.approx([2.0, 1.0, 0.0])


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


def test_lp_norm_quadrature_agreement():
    from scipy.integrate import quad
    for prof, p in ((RadialProfile.gaussian(1.2, 1.7), 2.0),
                    (RadialProfile.truncated_gaussian(2.0, 0.9, 1.3), 1.5),
                    (RadialProfile.ball(1.4, 0.8), 3.0)):
        def dens(r):
            return float(prof(np.atleast_1d(r))[0]) ** p * 2 * math.pi * r
        breaks = [prof.radius] if prof.kind == "ball_indicator" else None
        val, _ = quad(dens, 0, 12.0, points=breaks, limit=200)
        assert lp_norm(prof, p) == pytest.approx(val ** (1 / p), rel=1e-9)


def test_lp_norm_divergence_and_grid():
    with pytest.raises(DivergenceError):
        lp_norm(RadialProfile.constant(1.0), 2.0)
    f = make_field(seed=2)
    want = (np.sum(np.abs(f.values) ** 2) * f.cell_area) ** 0.5
    assert lp_norm(f, 2.0) == pytest.approx(want)

