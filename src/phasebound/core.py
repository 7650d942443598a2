"""Phase-space weights, norms, distribution functions and rearrangements.

Weights live on the plane R^2 (or symbolically on R^{2d}): either gridded
complex fields on a square box, or radial nonincreasing profiles rho(r).
The volume coordinate v(r) = (pi r^2)^d / d! turns every radial integral
into a one-dimensional one, which is how the closed forms below are
obtained.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidInputError, UnattainedBoundError

__all__ = [
    "WeightField",
    "RadialProfile",
    "DistributionFunction",
    "ConstraintSet",
    "distribution_function",
    "decreasing_rearrangement",
    "schwarz_symmetrize",
    "lp_norm",
]


# ---------------------------------------------------------------------------
# numerics shared across modules
# ---------------------------------------------------------------------------

def quad(func, a, b, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    Only the quadrature oracles integrate; loading ``scipy.integrate`` at
    import would cost every closed-form caller its start-up time and memory.
    """
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(func, a, b, **kwargs)


def expm1_poly(n: int, x):
    """e_n(x) - 1 = sum_{1 <= i <= n} x^i / i!, by Horner.

    e_n is the degree-n Taylor polynomial of exp.  Returning e_n - 1 keeps
    full relative precision for small x, as ``math.expm1`` does.
    """
    out = 0.0
    for i in range(n, 0, -1):
        out = x / i * (1.0 + out)
    return out


# ---------------------------------------------------------------------------
# gridded weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightField:
    """Complex weight sampled at cell centers of a square phase-plane box.

    The box is [-half_width, half_width]^2; values[i, j] is the sample at
    (x_i, omega_j) with x_i = -half_width + (i + 1/2) * cell.  Cell masses
    default to the uniform cell area; ``measure_weight`` overrides them
    (hyperbolic cell masses in wavelet use).
    """

    half_width: float
    n: int
    values: np.ndarray
    measure_weight: np.ndarray | None = None

    def __post_init__(self):
        if self.half_width <= 0:
            raise InvalidInputError("half_width must be positive")
        if self.n < 2:
            raise InvalidInputError("need at least 2 samples per axis")
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.shape != (self.n, self.n):
            raise InvalidInputError(f"values must be {self.n}x{self.n}, got {v.shape}")
        if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
            raise InvalidInputError("weight values must be finite")
        object.__setattr__(self, "values", v)
        if self.measure_weight is not None:
            w = np.asarray(self.measure_weight, dtype=float)
            if w.shape != (self.n, self.n):
                raise InvalidInputError("measure_weight must match the grid shape")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise InvalidInputError("measure weights must be positive and finite")
            object.__setattr__(self, "measure_weight", w)

    @property
    def cell(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def cell_area(self) -> float:
        return self.cell ** 2

    @property
    def axis(self) -> np.ndarray:
        """Cell-center coordinates, shared by both axes."""
        return -self.half_width + (np.arange(self.n) + 0.5) * self.cell

    def cell_masses(self) -> np.ndarray:
        if self.measure_weight is not None:
            return self.measure_weight
        return np.full((self.n, self.n), self.cell_area)

    def ess_sup(self) -> float:
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

_KINDS = ("ball_indicator", "gaussian", "truncated_gaussian", "sampled", "constant")


@dataclass(frozen=True)
class RadialProfile:
    """Nonincreasing nonnegative radial weight rho(|z - center|) on R^{2d}.

    kinds and parameters:
      ball_indicator     amplitude on r < radius, 0 beyond
      gaussian           amplitude * exp(-pi r^2 / scale)
      truncated_gaussian min(amplitude * exp(-pi r^2 / scale), cap), amplitude > cap
      sampled            left-continuous steps: value knot_values[i] on (knots[i-1], knots[i]]
      constant           amplitude everywhere
    """

    kind: str
    amplitude: float = 1.0
    scale: float = 1.0
    radius: float = 0.0
    cap: float = math.inf
    knots: np.ndarray | None = None
    knot_values: np.ndarray | None = None
    center: tuple[float, float] = (0.0, 0.0)
    dim: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown profile kind {self.kind!r}")
        if self.amplitude < 0 or self.scale <= 0 or self.dim < 1:
            raise InvalidInputError("amplitude must be >= 0, scale > 0, dim >= 1")
        if self.kind == "ball_indicator" and self.radius <= 0:
            raise InvalidInputError("ball needs a positive radius")
        if self.kind == "truncated_gaussian":
            if not (0 < self.cap < self.amplitude):
                raise InvalidInputError("truncation requires 0 < cap < amplitude")
        if self.kind == "sampled":
            r = np.asarray(self.knots, dtype=float)
            v = np.asarray(self.knot_values, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size == 0:
                raise InvalidInputError("sampled profile needs matching 1-d knots/values")
            if np.any(np.diff(r) <= 0) or r[0] <= 0:
                raise InvalidInputError("knots must be positive and strictly increasing")
            if np.any(v < 0) or np.any(np.diff(v) > 0):
                raise InvalidInputError("sampled values must be nonnegative and nonincreasing")
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
                raise InvalidInputError("sampled profile must be finite")
            object.__setattr__(self, "knots", r)
            object.__setattr__(self, "knot_values", v)

    # -- constructors ------------------------------------------------------
    @classmethod
    def ball(cls, amplitude: float, volume: float, center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        """Indicator of the ball of given 2d-volume (area when dim=1)."""
        radius = math.sqrt((volume * math.factorial(dim)) ** (1.0 / dim) / math.pi)
        return cls("ball_indicator", amplitude=amplitude, radius=radius, center=center, dim=dim)

    @classmethod
    def gaussian(cls, amplitude: float, scale: float, center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        return cls("gaussian", amplitude=amplitude, scale=scale, center=center, dim=dim)

    @classmethod
    def truncated_gaussian(cls, amplitude: float, scale: float, cap: float,
                           center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        return cls("truncated_gaussian", amplitude=amplitude, scale=scale, cap=cap,
                   center=center, dim=dim)

    @classmethod
    def sampled(cls, knots, values, center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        return cls("sampled", knots=np.asarray(knots, float),
                   knot_values=np.asarray(values, float), center=center, dim=dim)

    @classmethod
    def constant(cls, level: float, center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        return cls("constant", amplitude=level, center=center, dim=dim)

    # -- evaluation --------------------------------------------------------
    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "ball_indicator":
            return np.where(r < self.radius, self.amplitude, 0.0)
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-math.pi * r * r / self.scale)
        if self.kind == "truncated_gaussian":
            return np.minimum(self.amplitude * np.exp(-math.pi * r * r / self.scale), self.cap)
        if self.kind == "constant":
            return np.full_like(r, self.amplitude, dtype=float)
        # sampled: value v[i] on (knots[i-1], knots[i]], zero past the last knot
        idx = np.searchsorted(self.knots, r, side="left")
        out = np.zeros_like(r, dtype=float)
        inside = idx < self.knots.size
        out[inside] = self.knot_values[idx[inside]]
        return out

    def ess_sup(self) -> float:
        if self.kind == "truncated_gaussian":
            return self.cap
        if self.kind == "sampled":
            return float(self.knot_values[0])
        return float(self.amplitude)

    def on_grid(self, half_width: float, n: int) -> WeightField:
        """Sample onto a centered square grid (profile center included)."""
        ax = -half_width + (np.arange(n) + 0.5) * (2 * half_width / n)
        dx = ax[:, None] - self.center[0]
        dy = ax[None, :] - self.center[1]
        return WeightField(half_width, n, self(np.hypot(dx, dy)).astype(complex))

    # volume of the ball of radius r in R^{2d}
    def _vol(self, r):
        return (math.pi * np.asarray(r, float) ** 2) ** self.dim / math.factorial(self.dim)


# ---------------------------------------------------------------------------
# distribution functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionFunction:
    """Right-continuous nonincreasing mu(t) = measure of {|F| > t}.

    Values are sampled at ``breakpoints``; by convention mu equals masses[i]
    on [breakpoints[i], breakpoints[i+1]), masses[0] below the first
    breakpoint, and 0 at and above ``essential_sup``.
    """

    breakpoints: np.ndarray
    masses: np.ndarray
    essential_sup: float

    def __post_init__(self):
        t = np.asarray(self.breakpoints, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if t.shape != m.shape or t.ndim != 1:
            raise InvalidInputError("breakpoints and masses must be matching 1-d arrays")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise InvalidInputError("breakpoints must be strictly increasing")
        if np.any(m < -1e-12) or np.any(np.diff(m) > 1e-12):
            raise InvalidInputError("masses must be nonnegative and nonincreasing")
        object.__setattr__(self, "breakpoints", t)
        object.__setattr__(self, "masses", np.maximum(m, 0.0))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t, side="right") - 1
        out = self.masses[np.clip(idx, 0, self.masses.size - 1)]
        out = np.where(t >= self.essential_sup, 0.0, out)
        return out if out.ndim else float(out)

    @classmethod
    def zero(cls) -> "DistributionFunction":
        return cls(np.array([0.0]), np.array([0.0]), 0.0)


def distribution_function(w, n_levels: int = 256) -> DistributionFunction:
    """Distribution function of |w| sampled at geometric thresholds.

    Thresholds span (ess_sup * 1e-6, ess_sup]; this resolves both Gaussian
    tails and indicator jumps.  Grid fields count cell masses; closed-form
    radial profiles are inverted analytically.
    """
    if n_levels < 2:
        raise InvalidInputError("need at least 2 levels")
    ess = w.ess_sup()
    if ess == 0.0:
        return DistributionFunction.zero()
    ts = np.geomspace(ess * 1e-6, ess, n_levels)

    if isinstance(w, WeightField):
        vals = np.abs(w.values).ravel()
        masses = w.cell_masses().ravel()
        order = np.argsort(vals)[::-1]
        vals = vals[order]
        cum = np.cumsum(masses[order])
        # mu(t) = total mass of cells with value strictly above t
        counts = np.searchsorted(-vals, -ts, side="left")
        mu = np.where(counts > 0, cum[np.maximum(counts - 1, 0)], 0.0)
        return DistributionFunction(ts, mu, ess)

    if isinstance(w, RadialProfile):
        return DistributionFunction(ts, _radial_mu(w, ts), ess)

    raise InvalidInputError(f"unsupported weight type {type(w).__name__}")


def _radial_mu(p: RadialProfile, ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if p.kind == "ball_indicator":
        return np.where(ts < p.amplitude, p._vol(p.radius), 0.0)
    if p.kind == "gaussian":
        good = ts < p.amplitude
        mu = np.zeros_like(ts)
        mu[good] = (p.scale * np.log(p.amplitude / ts[good])) ** p.dim / math.factorial(p.dim)
        return mu
    if p.kind == "truncated_gaussian":
        # superlevel sets below the cap are those of the untruncated Gaussian
        good = ts < p.cap
        mu = np.zeros_like(ts)
        mu[good] = (p.scale * np.log(p.amplitude / ts[good])) ** p.dim / math.factorial(p.dim)
        return mu
    if p.kind == "constant":
        raise DivergenceError("constant profile has superlevel sets of infinite measure")
    # sampled steps: {rho > t} = (0, last knot whose value exceeds t];
    # values are nonincreasing, so that knot index is a searchsorted count
    vols = p._vol(p.knots)
    counts = np.searchsorted(-p.knot_values, -ts, side="left")
    return np.where(counts > 0, vols[np.maximum(counts - 1, 0)], 0.0)


# ---------------------------------------------------------------------------
# rearrangements
# ---------------------------------------------------------------------------

def decreasing_rearrangement(u) -> np.ndarray:
    """Decreasing rearrangement of samples on a uniform partition of (0, A).

    Sorting cell values descending is the exact rearrangement of the
    piecewise-constant function the samples represent.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise InvalidInputError("need a 1-d sample array")
    if not np.all(np.isfinite(u)):
        raise InvalidInputError("samples must be finite")
    if np.any(u < 0):
        raise InvalidInputError("samples must be nonnegative")
    return np.sort(u)[::-1]


def schwarz_symmetrize(w: WeightField) -> RadialProfile:
    """Radial nonincreasing rearrangement of |w|, centered at the origin.

    Cells are stacked by decreasing value; the k-th step ends at the radius
    whose disc area equals the cumulated cell mass, so the result is
    equimeasurable with |w| exactly (at grid resolution).  Lebesgue-measure
    fields only: rearrangement against another measure is not radial in the
    plane.
    """
    if w.measure_weight is not None:
        raise InvalidInputError("symmetrization is defined for Lebesgue cell masses")
    vals = np.abs(w.values).ravel()
    masses = w.cell_masses().ravel()
    positive = vals > 0.0
    if not np.any(positive):
        return RadialProfile.sampled([w.cell], [0.0])
    vals = vals[positive]
    masses = masses[positive]
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    radii = np.sqrt(np.cumsum(masses[order]) / math.pi)
    # merge equal-value runs so knots stay strictly increasing and minimal
    keep = np.nonzero(np.diff(vals, append=-1.0) != 0.0)[0]
    return RadialProfile.sampled(radii[keep], vals[keep])


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(w, p: float, measure: str = "lebesgue") -> float:
    """L^p norm of the weight against the chosen measure.

    Closed forms are used for analytic profile kinds; grid fields sum
    |value|^p over cell masses.
    """
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    if measure not in ("lebesgue", "hyperbolic"):
        raise InvalidInputError(f"unknown measure {measure!r}")

    if isinstance(w, WeightField):
        if measure == "hyperbolic":
            if w.measure_weight is None:
                raise InvalidInputError("hyperbolic norm needs measure_weight on the field")
            masses = w.measure_weight
        else:
            masses = w.cell_area
        return float(np.sum(np.abs(w.values) ** p * masses) ** (1.0 / p))

    if not isinstance(w, RadialProfile):
        raise InvalidInputError(f"unsupported weight type {type(w).__name__}")
    if measure == "hyperbolic":
        raise InvalidInputError("plane profiles carry no hyperbolic measure")

    d = w.dim
    if w.kind == "ball_indicator":
        return float(w.amplitude * w._vol(w.radius) ** (1.0 / p))
    if w.kind == "gaussian":
        # int |rho|^p dz = amplitude^p (scale/p)^d in the volume coordinate
        return float(w.amplitude * (w.scale / p) ** (d / p))
    if w.kind == "truncated_gaussian":
        # cap^p times the capped volume tau0^d / d!, plus the Gaussian tail
        # amplitude^p (scale/p)^d Q(d, p s0) = cap^p (scale/p)^d e_{d-1}(p s0),
        # since Q(d, y) e^y = e_{d-1}(y); amplitude^p would overflow
        s0 = math.log(w.amplitude / w.cap)
        tau0 = w.scale * s0
        tail = (w.scale / p) ** d * (1.0 + expm1_poly(d - 1, p * s0))
        return float(w.cap * (tau0 ** d / math.factorial(d) + tail) ** (1.0 / p))
    if w.kind == "constant":
        raise DivergenceError("constant profile is not in L^p of the plane")
    vols = w._vol(w.knots)
    steps = np.diff(vols, prepend=0.0)
    return float(np.sum(w.knot_values ** p * steps) ** (1.0 / p))


# ---------------------------------------------------------------------------
# constraint data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintSet:
    """The constraint triple (p, A, B) plus the transform parameter d or beta.

    A may be math.inf (drops the sup constraint); that case is rejected for
    p = 1, where the optimal constant B is a supremum and not attained.
    """

    p: float
    A: float
    B: float
    transform: str = "gabor"
    d: int = 1
    beta: float = 1.0

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError("p must be >= 1")
        if not (self.A > 0):
            raise InvalidInputError("A must be positive (possibly inf)")
        if not (0 < self.B < math.inf):
            raise InvalidInputError("B must be positive and finite")
        if self.p == 1 and math.isinf(self.A):
            raise UnattainedBoundError(self.B)
        if self.transform not in ("gabor", "wavelet"):
            raise InvalidInputError("transform must be 'gabor' or 'wavelet'")
        if self.transform == "gabor":
            if not (isinstance(self.d, int) and self.d >= 1):
                raise InvalidInputError("gabor constraints need integer d >= 1")
        else:
            if not (self.beta > 0):
                raise InvalidInputError("wavelet constraints need beta > 0")

    @property
    def kappa(self) -> float:
        """(p - 1) / p, the regime-threshold constant."""
        return (self.p - 1.0) / self.p

    @property
    def sigma(self) -> float:
        return (self.p - 1.0) / (2.0 * self.beta * self.p + 1.0)

    @property
    def alpha(self) -> float:
        return (self.p - 1.0) / (2.0 * self.beta + 1.0)

    @property
    def b_over_a_pow_p(self) -> float:
        """(B/A)^p: 0 when A = inf, inf when it overflows."""
        if math.isinf(self.A):
            return 0.0
        try:
            return (self.B / self.A) ** self.p
        except OverflowError:
            return math.inf
