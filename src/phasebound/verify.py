"""Verification suites: numerical checks of the module invariants.

Each suite returns ``{"suite", "passed", "failed", "details": [...]}`` with
one entry per check; the CLI renders these as JSON and pytest reuses the
same functions.  All randomness flows through a seeded generator.
"""
from __future__ import annotations

import math
import time
from functools import partial
from numbers import Integral

import numpy as np

from . import bounds as bd
from . import varprob as vp
from .core import (RadialProfile, WeightField, decreasing_rearrangement, distribution_bound,
                   lp_norm, positive_int, schwarz_symmetrize)
from .errors import InvalidInputError
from .extremals import (extremal_signal, extremal_weight_gabor,
                        extremal_weight_wavelet, wavelet_disc_coefficients)
from .gabor import (Signal, assemble, concentration, expectation, lieb_quotient,
                    radial_eigenvalues_quad, spectrum, spectrum_from_matrix, stft)
from .wavelet import (DiscProfile, HalfPlaneGrid, HardySignal, bergman_basis,
                      cauchy_norm_const, cauchy_wavelet, disc_basis_frequency,
                      nu_window_integral, wavelet_transform_grid)
from .scalar import ConstraintSet, Disc, Plane

SUITES = ("bounds", "rearrange", "varprob", "gabor", "wavelet")


class _Recorder:
    """Collects a suite's details.  Each gets ``elapsed_ms``, the process
    CPU time since the previous record (or the suite's start), and a check
    with a positive tolerance its ``margin`` = error / tolerance."""

    def __init__(self, suite: str):
        self.suite = suite
        self.details = []
        self._clock = time.process_time()

    def _record(self, detail: dict) -> bool:
        now = time.process_time()
        detail["elapsed_ms"] = 1e3 * (now - self._clock)
        self._clock = now
        self.details.append(detail)
        return detail["ok"]

    def check(self, name: str, err: float, tol: float):
        err, tol = float(err), float(tol)
        detail = {"name": name, "ok": err <= tol, "error": err, "tolerance": tol}
        if tol > 0:
            detail["margin"] = err / tol
        return self._record(detail)

    def expect(self, name: str, ok: bool, info: str = ""):
        return self._record({"name": name, "ok": bool(ok), "info": info})

    def summary(self) -> dict:
        failed = sum(1 for d in self.details if not d["ok"])
        return {"suite": self.suite, "passed": len(self.details) - failed,
                "failed": failed, "details": self.details}


# ---------------------------------------------------------------------------
# helpers shared with tests
# ---------------------------------------------------------------------------

def random_feasible_competitor(rng, c: ConstraintSet):
    """A random nonincreasing step function with the constraint saturated.

    40 steps on (0, T): random positive levels, sorted decreasing, then
    scaled so the exact moment equals B^p (the moment is linear in u).
    """
    n_steps = 40
    T = c.A if math.isfinite(c.A) else float(rng.uniform(0.5, 4.0))
    edges = np.sort(rng.uniform(0.0, T, n_steps - 1))
    edges = np.concatenate([[0.0], edges, [T]])
    levels = np.sort(rng.exponential(1.0, n_steps))[::-1]
    levels *= c.B ** c.p / step_moment(edges, levels, c.p)

    def u(t):
        t = np.asarray(t, float)
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, n_steps - 1)
        return np.where(t < T, levels[idx], 0.0)

    width = np.diff(edges)
    objective = float(np.sum(c.setting.g(levels) * width))
    return u, objective


def thresholds(w, n: int) -> np.ndarray:
    """n geometric thresholds on [ess_sup * 1e-6, ess_sup], which resolve
    both Gaussian tails and indicator jumps of mu."""
    ess = w.ess_sup()
    return np.geomspace(ess * 1e-6, ess, n)


def step_moment(edges: np.ndarray, levels: np.ndarray, p: float) -> float:
    """Exact p-moment of a step function: p int t^{p-1} u dt summed per step."""
    return float(np.sum(levels * (edges[1:] ** p - edges[:-1] ** p)))


def random_radial(rng) -> RadialProfile:
    """60 random nonincreasing steps on radii in (0.05, 3)."""
    radii = np.sort(rng.uniform(0.05, 3.0, 60))
    values = np.sort(rng.exponential(1.0, 60))[::-1]
    return RadialProfile.sampled(radii, values)


def random_field(rng, half_width: float = 6.0, n: int = 128) -> WeightField:
    """Four random Gaussian bumps centered in [-2.5, 2.5]^2, on an n x n grid."""
    ax = WeightField.cell_centers(half_width, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    f = np.zeros((n, n))
    for _ in range(4):
        cx, cy = rng.uniform(-2.5, 2.5, 2)
        s = rng.uniform(0.3, 1.5)
        f += rng.uniform(0.2, 1.0) * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * s * s))
    return WeightField(half_width, n, f)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def verify_bounds(seed: int = 0, basis: int = 48) -> dict:
    rec = _Recorder("bounds")

    rec.check("G(0,d)=0", max(abs(bd.G(0.0, d)) for d in (1, 2, 3)), 0.0)
    rec.check("G(1,1)", abs(bd.G(1.0, 1) - (1.0 - math.exp(-1.0))), 1e-15)
    rec.check("G(2,2) pinned", abs(bd.G(2.0, 2) - 0.5939941502901619), 1e-14)
    rec.check("G_beta(1,1) pinned", abs(bd.G_beta(1.0, 1.0) - 0.14198995239832093), 1e-14)

    # strict increase and concavity (decreasing divided differences) on a
    # log-spaced grid, away from the double-precision saturation at 1
    s = np.geomspace(1e-4, 30.0, 200)
    for d in (1, 2, 3):
        g = bd.G(s, d)
        slopes = np.diff(g) / np.diff(s)
        ok = (np.all(np.diff(g) > 0) and np.all(g <= s + 1e-15)
              and abs(bd.G(1e4, d) - 1.0) < 1e-9
              and np.all(np.diff(slopes) < 1e-12))
        rec.expect(f"G(.,{d}) increasing/concave/<=s/limit", ok)
    gb = bd.G_beta(s, 1.5)
    slopes = np.diff(gb) / np.diff(s)
    rec.expect("G_beta increasing/concave/<=s/limit",
               bool(np.all(np.diff(gb) > 0) and np.all(gb <= s + 1e-15)
                    and abs(bd.G_beta(1e9, 1.5) - 1.0) < 1e-8
                    and np.all(np.diff(slopes) < 1e-12)))

    # regime continuity at the threshold
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 10.0):
        for d in (1, 2, 3):
            c = ConstraintSet(p, 1.0, 0.0 + ((p - 1) / p) ** (d / p), "gabor", d=d)
            gaussian = c.kappa ** (d * c.kappa) * c.B
            # the truncated extremal at lam = A is the uncapped Gaussian
            truncated = distribution_bound(RadialProfile.gaussian(c.A, p - 1.0, dim=d),
                                           partial(bd.G, d=d))
            worst = max(worst, abs(gaussian - truncated))
            if d == 1:
                worst = max(worst, abs(gaussian - c.A * c.kappa))
    rec.check("gabor regime continuity", worst, 1e-12)

    worst = 0.0
    for p in (1.5, 2.0, 3.0, 10.0):
        for beta in (0.5, 1.0, 2.0, 5.0):
            B = (4 * math.pi * (p - 1) / (2 * beta * p + 1)) ** (1.0 / p)
            c = ConstraintSet(p, 1.0, B, "wavelet", beta=beta)
            gaussian = 2 * beta / (4 * math.pi) ** (1 / p) * c.sigma ** c.kappa * B
            truncated = c.A * (1 - p ** (2 * beta) * (c.sigma / c.alpha) ** (2 * beta + 1)
                               * (1 + c.b_over_a_pow_p / (4 * math.pi)) ** (-2 * beta))
            worst = max(worst, abs(gaussian - truncated),
                        abs(gaussian - 2 * beta * c.sigma * c.A))
    rec.check("wavelet regime continuity", worst, 1e-12)

    # d=1 truncated closed form against the quadratures of the maximizer:
    # the bound integral and the relative saturation residual of the moment
    worst = 0.0
    for (p, A, B) in ((2.0, 1.0, 1.0), (1.5, 0.7, 1.1), (3.0, 1.2, 1.9)):
        c = ConstraintSet(p, A, B, "gabor", d=1)
        rep = bd.gabor_bound(c)
        if rep.regime == "truncated":
            sol = vp.solve_closed_form(c)
            worst = max(worst, abs(rep.bound - sol.objective_value),
                        abs(sol.constraint_value - B ** p) / B ** p)
    rec.check("d=1 closed form vs quadrature", worst, 1e-10)

    # lambda boundary: threshold constraints give lam = A through formulas
    c = ConstraintSet(2.0, 1.0, math.sqrt(0.5), "gabor", d=1)
    rec.check("boundary lambda = A", abs(bd.gabor_bound(c).lam - c.A), 1e-12)

    # monotonicity in B (strict) and A (nondecreasing)
    ok = True
    for p in (1.0, 2.0, 3.0):
        bs = [bd.gabor_bound(ConstraintSet(p, 1.0, b, "gabor")).bound
              for b in (0.5, 0.8, 1.2, 2.0)]
        ok = ok and all(x < y for x, y in zip(bs, bs[1:]))
        as_ = [bd.gabor_bound(ConstraintSet(p, a, 1.0, "gabor")).bound
               for a in (0.5, 0.8, 1.2)]
        ok = ok and all(x <= y + 1e-15 for x, y in zip(as_, as_[1:]))
    rec.expect("bound monotone in B and A", ok)

    # dominance: bound <= min(A, kappa^{d kappa} B)
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(50):
        p = float(rng.uniform(1.01, 6.0))
        A = float(rng.uniform(0.2, 3.0))
        B = float(rng.uniform(0.2, 3.0))
        d = int(rng.integers(1, 3))
        c = ConstraintSet(p, A, B, "gabor", d=d)
        cap = min(A, c.kappa ** (d * c.kappa) * B)
        ok = ok and bd.gabor_bound(c).bound <= cap + 1e-10
    rec.expect("bound <= min(A, kappa^{d kappa} B)", ok)

    return rec.summary()


def verify_rearrange(seed: int = 0, basis: int = 48) -> dict:
    rec = _Recorder("rearrange")
    rng = np.random.default_rng(seed)

    # moment inequality for 100 random step functions, by exact step sums
    worst = -math.inf
    for _ in range(100):
        p = float(rng.uniform(1.0, 4.0))
        A = float(rng.uniform(0.5, 3.0))
        n = int(rng.integers(5, 60))
        u = rng.exponential(1.0, n)
        ustar = decreasing_rearrangement(u)
        edges = np.linspace(0.0, A, n + 1)
        worst = max(worst, step_moment(edges, ustar, p) - step_moment(edges, u, p))
    rec.check("rearrangement moment inequality", max(worst, 0.0), 1e-12)

    # norm preservation
    u = rng.exponential(1.0, 500)
    worst = max(abs(np.sum(decreasing_rearrangement(u) ** p) - np.sum(u ** p))
                for p in (1.0, 2.0, 5.0))
    rec.check("rearrangement preserves L^p", worst, 1e-9)

    dec = np.sort(rng.uniform(0, 1, 50))[::-1]
    rec.check("fixed point", float(np.max(np.abs(decreasing_rearrangement(dec) - dec))), 0.0)

    # schwarz: square of area 1 -> ball of area 1
    n = 256
    ax = WeightField.cell_centers(2.0, n)
    inside = (np.abs(ax[:, None]) < 0.5) & (np.abs(ax[None, :]) < 0.5)
    field = WeightField(2.0, n, inside)
    star = schwarz_symmetrize(field)
    r_last = star.knots[-1]
    rec.check("square -> ball radius", abs(r_last - 1.0 / math.sqrt(math.pi)),
              2 * field.cell)

    # distribution match between field and its symmetrization, at
    # geometric thresholds below the common ess sup
    f = random_field(rng, n=64)
    ts = thresholds(f, 64)
    worst = float(np.max(np.abs(f.mu(ts) - schwarz_symmetrize(f).mu(ts))))
    rec.check("symmetrization preserves distribution", worst, f.cell_area + 1e-12)

    # distribution function vs sort-based oracle on a random grid (exact)
    f = WeightField(3.0, 64, rng.uniform(0, 1, (64, 64)))
    ts = thresholds(f, 128)
    vals = np.sort(np.abs(f.values).ravel())[::-1]
    oracle = np.array([np.sum(vals > t) * f.cell_area for t in ts])
    rec.check("distribution vs sort oracle", float(np.max(np.abs(f.mu(ts) - oracle))), 0.0)

    # lp_norm closed forms
    ball = RadialProfile.ball(2.0, 1.5)
    rec.check("ball L1 = A*s", abs(lp_norm(ball, 1.0) - 3.0), 1e-12)
    g = RadialProfile.gaussian(1.3, 1.0)
    rec.check("gaussian L2 = amp/sqrt(2)", abs(lp_norm(g, 2.0) - 1.3 / math.sqrt(2)), 1e-12)
    tr = RadialProfile.truncated_gaussian(math.exp(0.5), 1.0, 1.0)
    rec.check("extremal truncated L2 = B", abs(lp_norm(tr, 2.0) - 1.0), 1e-12)

    # analytic distribution of the Gaussian profile, at geometric thresholds
    lam, p = 1.7, 2.0
    gp = RadialProfile.gaussian(lam, p - 1.0)
    ts = thresholds(gp, 400)
    worst = float(np.max(np.abs(gp.mu(ts) - np.where(
        ts < lam, -(np.log((ts / lam) ** (p - 1.0))), 0.0))))
    rec.check("gaussian distribution closed form", worst, 1e-12)

    return rec.summary()


def verify_varprob(seed: int = 0, basis: int = 48) -> dict:
    rec = _Recorder("varprob")
    rng = np.random.default_rng(seed)

    cases = [
        ConstraintSet(2.0, 1.0, 1.0, "gabor", d=1),
        ConstraintSet(2.0, math.inf, 1.0, "gabor", d=1),
        ConstraintSet(1.5, 2.0, 1.0, "gabor", d=1),
        ConstraintSet(2.0, 1.0, 1.0, "gabor", d=2),
        ConstraintSet(3.0, 1.0, 1.4, "gabor", d=1),
        ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0),
        ConstraintSet(2.0, 1.0, 2.0, "wavelet", beta=1.0),
        ConstraintSet(3.0, 1.5, 1.0, "wavelet", beta=0.5),
    ]

    sols = [vp.solve_closed_form(c) for c in cases]
    worst_pw = worst_obj = worst_sat = worst_bound = 0.0
    for c, sol in zip(cases, sols):
        orc = vp.solve_kkt_oracle(c)
        upper = min(c.A, sol.lam) if sol.lam else c.A
        ts = np.geomspace(upper * 1e-6, upper * (1 - 1e-9), 500)
        worst_pw = max(worst_pw, float(np.max(np.abs(sol.u(ts) - orc.u(ts)))))
        worst_obj = max(worst_obj, abs(sol.objective_value - orc.objective_value))
        worst_sat = max(worst_sat, abs(sol.constraint_value - c.B ** c.p),
                        abs(orc.constraint_value - c.B ** c.p))
        ref = c.setting.bound(c)
        worst_bound = max(worst_bound, abs(sol.objective_value - ref.bound))
    rec.check("oracle pointwise vs closed form", worst_pw, 1e-8)
    rec.check("oracle objective vs closed form", worst_obj, 1e-10)
    rec.check("constraint saturation", worst_sat, 1e-10)
    rec.check("objective equals bound", worst_bound, 1e-10)

    # random rearranged competitors score strictly lower
    ok = True
    margin = math.inf
    for c, sol in zip(cases, sols):
        for _ in range(20):
            _, obj = random_feasible_competitor(rng, c)
            margin = min(margin, sol.objective_value - obj)
            ok = ok and obj < sol.objective_value
    rec.expect("competitors strictly below maximizer",
               ok, f"min margin {margin:.3e}")

    # monotonicity removal: I(u~) = I(u~*) and moment(u~*) <= moment(u~)
    ok = True
    for _ in range(25):
        p = float(rng.uniform(1.0, 3.0))
        A = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(10, 80))
        u = rng.exponential(1.0, n)
        ustar = decreasing_rearrangement(u)
        edges = np.linspace(0.0, A, n + 1)
        g = Plane(1).g
        width = np.diff(edges)
        same_obj = abs(float(np.sum(g(u) * width))
                       - float(np.sum(g(ustar) * width)))
        ok = ok and same_obj < 1e-12
        ok = ok and step_moment(edges, ustar, p) <= step_moment(edges, u, p) + 1e-12
    rec.expect("monotonicity removal", ok)

    # pointwise bound u(t) <= B^p / t^p
    ok = True
    for c, sol in zip(cases, sols):
        upper = min(c.A, sol.lam) if sol.lam else c.A
        ts = np.geomspace(upper * 1e-5, upper * (1 - 1e-9), 300)
        ok = ok and bool(np.all(sol.u(ts) <= c.B ** c.p / ts ** c.p + 1e-9))
    rec.expect("pointwise bound B^p/t^p", ok)

    return rec.summary()


def verify_gabor(seed: int = 0, basis: int = 48) -> dict:
    rec = _Recorder("gabor")
    rng = np.random.default_rng(seed)
    K, plane = basis, Plane(1)

    # ball sharpness at K=32
    ball = RadialProfile.ball(1.0, 1.0)
    nm = spectrum_from_matrix(assemble(ball, 32, plane)).norm()
    rec.check("ball indicator norm", abs(nm - (1.0 - math.exp(-1.0))), 1e-6)

    # gaussian sharpness for p in 1.5, 2, 3
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        c = ConstraintSet(p, math.inf, 1.0, "gabor", d=1)
        lam0 = spectrum(extremal_weight_gabor(c), 8, plane).eigenvalues[0]
        worst = max(worst, abs(lam0 - bd.gabor_bound(c).bound))
    rec.check("gaussian extremal saturation", worst, 1e-12)

    # truncated sharpness: closed-form and quadrature eigenvalue paths
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor", d=1)
    w = extremal_weight_gabor(c)
    lam0 = spectrum(w, 8, plane).eigenvalues[0]
    lam0q = radial_eigenvalues_quad(w, 8).eigenvalues[0]
    target = bd.gabor_bound(c).bound
    rec.check("truncated extremal saturation", abs(lam0 - target), 1e-12)
    rec.check("truncated quadrature eigenvalues", abs(lam0q - target), 1e-8)

    # assembly vs radial eigenvalues: two paths agree
    prof = RadialProfile.truncated_gaussian(1.9, 1.3, 1.2)
    M = assemble(prof, K, plane)
    spec = spectrum(prof, K, plane)
    offdiag = float(np.max(np.abs(M - np.diag(np.diag(M)))))
    diag = np.sort(np.diag(M).real)[::-1]
    rec.check("radial assembly off-diagonal", offdiag, 1e-8)
    rec.check("radial assembly diagonal", float(np.max(np.abs(diag - spec.eigenvalues))), 1e-8)

    # spectrum bounds for nonnegative weights
    ok = bool(np.all(spec.eigenvalues >= -1e-14)
              and np.all(spec.eigenvalues <= prof.ess_sup() + 1e-12)
              and np.all(np.diff(spec.eigenvalues) <= 1e-14))
    rec.expect("0 <= lam_k <= sup F, nonincreasing", ok)

    # random fields: distribution bound and symmetrization monotonicity
    worst_db = worst_sym = -math.inf
    for _ in range(5):
        f = random_field(rng)
        spec = spectrum(f, K, plane)
        nm = spec.norm()
        worst_db = max(worst_db, nm - spec.upper)
        star_top = spectrum(schwarz_symmetrize(f), 1, plane).eigenvalues[0]
        worst_sym = max(worst_sym, nm - star_top)
        for p in (1.0, 2.0, 3.0):
            cset = ConstraintSet(p, f.ess_sup(), lp_norm(f, p), "gabor", d=1)
            worst_db = max(worst_db, nm - bd.gabor_bound(cset).bound)
    rec.check("norm <= distribution bound (random fields)", max(worst_db, 0.0), 1e-6)
    rec.check("norm <= symmetrized norm", max(worst_sym, 0.0), 1e-6)

    # distribution-bound equality for radial nonincreasing weights
    worst = 0.0
    for prof2 in (RadialProfile.ball(1.0, 2.0), RadialProfile.gaussian(1.1, 0.8),
                  random_radial(rng)):
        lam_top = spectrum(prof2, 1, plane).eigenvalues[0]
        worst = max(worst, abs(lam_top - distribution_bound(prof2, bd.G)))
    rec.check("distribution bound equality (radial)", worst, 1e-4)

    # basis-size convergence within the proven tail: norm(2K) <= upper(K)
    f = random_field(rng, n=96)
    sK, s2K = spectrum(f, 24, plane), spectrum(f, 48, plane)
    rec.check("norm(K) vs norm(2K) within tail",
              abs(sK.norm() - s2K.norm()) - sK.tail_bound, 0.0)

    # concentration: ball equality case and square strictly below
    phi = Signal.gaussian_pulse(0.0, 0.0)
    ball = RadialProfile.ball(1.0, 1.0).on_grid(6.0, 512)
    cb = concentration(phi, ball)
    rec.check("concentration on unit-area ball", abs(cb - (1 - math.exp(-1))), 5e-3)
    inside = np.abs(ball.axis) < 0.5
    sq = WeightField(6.0, 512, inside[:, None] & inside[None, :])
    rec.expect("square strictly below ball", concentration(phi, sq) < cb)
    rec.check("empty region", concentration(phi, WeightField(6.0, 64, np.zeros((64, 64)))), 0.0)

    # phase-space L^p norms of the window and first Hermite
    worst = max(abs(lieb_quotient(phi, p) - (2.0 / p) ** (1.0 / p)) for p in (2, 4, 8))
    rec.check("window phase-space L^p", worst, 1e-4)
    rec.expect("h1 strictly below the ceiling",
               lieb_quotient(Signal.from_hermite([0, 1]), 4) < (0.5) ** 0.25 - 1e-3)

    # transform isometry for random Hermite-coefficient signals
    worst = 0.0
    for _ in range(5):
        co = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = Signal.from_hermite(co)
        field = stft(f, 6.0, 128)
        mass = float(np.sum(np.abs(field.values) ** 2) * field.cell_area)
        worst = max(worst, abs(mass - float(np.sum(np.abs(co) ** 2))))
    rec.check("transform isometry (grid quadrature)", worst, 1e-6)

    # covariance: shifted pulse moves |V phi|
    f = Signal.gaussian_pulse(1.0, -0.5)
    field = stft(f, 6.0, 128)
    i, j = np.unravel_index(np.argmax(np.abs(field.values)), field.values.shape)
    ax = field.axis
    rec.check("pulse covariance peak location",
              math.hypot(ax[i] - 1.0, ax[j] + 0.5), 2 * field.cell)

    # matched extremal pair saturates; mismatched center falls short
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor", d=1)
    z0 = (0.6, -0.3)
    M = assemble(extremal_weight_gabor(c, center=z0), K, plane)
    v = extremal_signal(*z0).hermite_coefficients(K)
    val = expectation(M, v).real
    rec.check("matched signal saturates", abs(val - bd.gabor_bound(c).bound), 1e-5)
    v2 = extremal_signal(z0[0] + 2.0, z0[1]).hermite_coefficients(K)
    rec.expect("mismatched signal falls short",
               bd.gabor_bound(c).bound - expectation(M, v2).real > 0.05)

    return rec.summary()


def verify_wavelet(seed: int = 0, basis: int = 48) -> dict:
    rec = _Recorder("wavelet")
    rng = np.random.default_rng(seed)

    # analyzing wavelet normalizations
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        psi = cauchy_wavelet(beta)
        worst = max(worst,
                    abs(float(np.sum(psi.weights * np.abs(psi.values) ** 2 / psi.omegas))
                        - 1.0 / (2 * math.pi)),
                    abs(psi.l2_norm() ** 2 - beta / (2 * math.pi)))
    rec.check("wavelet normalization", worst, 1e-10)
    rec.check("c_1^2 = pi/2", abs(cauchy_norm_const(1.0) ** 2 - math.pi / 2), 1e-12)

    # disc-indicator identity across beta and measures
    worst = 0.0
    for beta in (0.5, 1.0, 2.0, 5.0):
        for s in np.geomspace(0.05, 50.0, 20):
            lam0 = spectrum(DiscProfile.indicator(1.0, s), 2, Disc(beta)).eigenvalues[0]
            worst = max(worst, abs(lam0 - bd.G_beta(s, beta)))
    rec.check("disc indicator identity", worst, 1e-12)

    # transform values against the closed-form basis
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        for k in range(9):
            f = HardySignal.from_disc_coeffs(np.eye(9)[k], beta)
            xs = np.array([0.0, 0.8, -1.1])
            ys = np.array([0.5, 1.0, 2.5])
            got = wavelet_transform_grid(f, beta, xs, ys)
            X, Y = np.meshgrid(xs, ys, indexing="ij")
            want = bergman_basis(k + 1, beta, X.ravel(), Y.ravel())[k].reshape(3, 3)
            worst = max(worst, float(np.max(np.abs(got - want))))
    rec.check("transform vs closed-form basis", worst, 1e-8)

    # windowed isometry at beta = 2
    beta = 2.0
    cos = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]

    def fhat(co, om):
        out = np.zeros_like(om, dtype=complex)
        for k, ck in enumerate(co):
            out += ck * disc_basis_frequency(k, beta, om)
        return out

    fs = [HardySignal.on_uniform_grid(partial(fhat, co), 60.0, 6000) for co in cos]
    got = nu_window_integral(
        lambda xs, ys: np.abs(wavelet_transform_grid(fs, beta, xs, ys)) ** 2)
    exact = np.array([np.sum(np.abs(co) ** 2) for co in cos])
    rec.check("transform isometry (windowed)", float(np.max(np.abs(got - exact) / exact)), 1e-4)

    # hyperbolic disc mask measure: the indicator of the disc of measure 1
    disc = DiscProfile.indicator(1.0, 1.0)
    grid = HalfPlaneGrid.logarithmic(-0.8, 0.8, 512, 0.42, 2.1, 512)
    mask = disc.on_grid(grid)
    measure = float(np.sum(mask.values * grid.cell_masses()))
    rec.check("disc mask measure", abs(measure - 1.0), 1e-2)

    # boundary radius against the Moebius threshold q = |(z - i)/(z + i)|^2
    x2, y = grid.x[:, None] ** 2, grid.y[None, :]
    q = x2 + (y - 1.0) ** 2
    q /= x2 + (y + 1.0) ** 2
    rec.expect("mask boundary matches threshold",
               bool(np.all(mask.values[q < disc.edge - 2e-3] == 1.0)
                    and np.all(mask.values[q > disc.edge + 2e-3] == 0.0)))
    del q  # 2 MB: held to the end, it would add to every later check's peak

    # direct half-plane assembly vs the Beta identity
    K = min(basis, 12)
    M = assemble(mask, K, Disc(1.0))
    top = spectrum_from_matrix(M).eigenvalues[0]
    rec.check("disc assembly top eigenvalue", abs(top - bd.G_beta(1.0, 1.0)), 1e-3)
    rec.check("disc assembly off-diagonal",
              float(np.max(np.abs(M - np.diag(np.diag(M))))), 1e-4)
    del mask, M  # likewise the 512^2 mask

    # extremal saturation through Beta integrals
    worst = 0.0
    for (p, beta2) in ((2.0, 1.0), (3.0, 0.5), (1.0, 2.0)):
        c = ConstraintSet(p, 1.0, 0.8, "wavelet", beta=beta2)
        w = extremal_weight_wavelet(c)
        lam0 = spectrum(w, 8, Disc(beta2)).eigenvalues[0]
        worst = max(worst, abs(lam0 - bd.wavelet_bound(c).bound))
        worst = max(worst, abs(w.lp_norm(p) - c.B))
    rec.check("extremal saturation (Beta integrals)", worst, 1e-10)

    # random nu-radial symbols: distribution bound equality and norm bound
    worst_eq = 0.0
    worst_bd = -math.inf
    for _ in range(5):
        xk = np.sort(rng.uniform(0.02, 0.9, 30))
        vk = np.sort(rng.exponential(1.0, 30))[::-1]
        sym = DiscProfile.sampled(xk, vk)
        beta3 = float(rng.uniform(0.5, 2.0))
        lam0 = spectrum(sym, 1, Disc(beta3)).eigenvalues[0]
        ceiling = partial(bd.G_beta, beta=beta3)
        worst_eq = max(worst_eq, abs(lam0 - distribution_bound(sym, ceiling)))
        for p in (1.0, 2.0):
            c = ConstraintSet(p, sym.ess_sup(), sym.lp_norm(p), "wavelet", beta=beta3)
            worst_bd = max(worst_bd, lam0 - bd.wavelet_bound(c).bound)
    rec.check("nu distribution bound equality (radial)", worst_eq, 2e-3)
    rec.check("norm <= wavelet bound (radial symbols)", max(worst_bd, 0.0), 2e-3)

    # Moebius recentering: eigenvalues of a translated disc indicator
    z0 = 0.4 + 1.6j
    disc2 = DiscProfile.indicator(1.0, 1.0, center=z0)
    r2 = disc2.edge
    yc = z0.imag * (1 + r2) / (1 - r2)
    rad = 2 * math.sqrt(r2) * z0.imag / (1 - r2)
    grid2 = HalfPlaneGrid.logarithmic(z0.real - 1.4 * rad, z0.real + 1.4 * rad, 384,
                                      (yc - rad) * 0.72, (yc + rad) * 1.4, 384)
    M2 = assemble(disc2.on_grid(grid2), 8, Disc(1.0), center=z0)
    eigs2 = spectrum_from_matrix(M2).eigenvalues
    ref = spectrum(DiscProfile.indicator(1.0, 1.0), 8, Disc(1.0)).eigenvalues
    rec.check("Moebius recentering eigenvalues",
              float(np.max(np.abs(eigs2 - ref))), 1e-4)

    # matched extremal pair at an off-center point, through grid assembly:
    # symbol and signal both live at z0, expanded in the i-centered basis
    c = ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0)
    z0 = 0.3 + 1.4j
    w = extremal_weight_wavelet(c, center=z0)
    y0 = z0.imag
    grid3 = HalfPlaneGrid.logarithmic(z0.real - 15 * y0, z0.real + 15 * y0, 320,
                                      y0 / 30.0, 30.0 * y0, 320)
    M3 = assemble(w.on_grid(grid3), 24, Disc(1.0))
    co = wavelet_disc_coefficients(z0.real, z0.imag, 1.0, 24)
    val = float(np.real(expectation(M3, co)))
    rec.check("matched wavelet pair saturates", abs(val - bd.wavelet_bound(c).bound), 2e-3)

    return rec.summary()


_SUITE_FUNCS = {
    "bounds": verify_bounds,
    "rearrange": verify_rearrange,
    "varprob": verify_varprob,
    "gabor": verify_gabor,
    "wavelet": verify_wavelet,
}


def run_suite(name: str, seed: int = 0, basis: int = 48) -> list[dict]:
    """Run one suite (or 'all'); returns a list of suite summaries."""
    if not (isinstance(seed, Integral) and seed >= 0):
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed!r}")
    basis = positive_int(basis, "basis")
    if name == "all":
        return [fn(seed=seed, basis=basis) for fn in _SUITE_FUNCS.values()]
    if name not in _SUITE_FUNCS:
        raise InvalidInputError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    return [_SUITE_FUNCS[name](seed=seed, basis=basis)]
