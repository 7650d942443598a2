"""Phase-space weights in the measure coordinate: norms, distribution
functions, distribution bounds and rearrangements.

A weight enters the sharp bounds only through the measure s of its
superlevel sets, and this module owns that coordinate.  On the plane
R^{2d}, s = (pi r^2)^d / d! is the volume of the ball of radius r; on the
disc model of the half-plane (``wavelet``), s = 4 pi x / (1 - x) is the
hyperbolic measure of {|w|^2 < x}.  Everything that does not depend on the
geometry is written once, in s:

  GridField       complex values on cells of known mass (``WeightField``
                  here, ``HalfPlaneField`` in ``wavelet``), with the exact
                  step distribution function mu(t) of their cell values;
  MeasureProfile  nonincreasing radial profiles (``RadialProfile`` here,
                  ``DiscProfile`` in ``wavelet``): knot validation, step
                  evaluation, ess_sup, and the indicator, sampled and
                  constant branches of the L^p norm, of mu(t) and of the
                  radial spectra;
  distribution_bound  int_0^inf G(mu(t)) dt for the ceiling G of a setting;
  gauss_panels, integrate  the Gauss-Legendre panel rule of every oracle
                  integral, and its refinement on (0, b) with an error
                  estimate.

Every weight, gridded or radial, answers the same exact mu(t), the measure
of {|w| > t}, and the bounds read nothing else of it.  A setting supplies
its coordinate map, its analytic family (a Gaussian in
pi r^2, a power of 1 - x) and its spectral CDF (regularized Gamma or Beta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, InvalidInputError
from .scalar import _check_exponent, expm1_poly

__all__ = [
    "gauss_panels",
    "integrate",
    "GridField",
    "WeightField",
    "MeasureProfile",
    "RadialProfile",
    "distribution_bound",
    "decreasing_rearrangement",
    "schwarz_symmetrize",
    "lp_norm",
]


def _step_mu(levels: np.ndarray, measures: np.ndarray, t) -> np.ndarray:
    """mu(t) of a step distribution: measures[i] is the measure of the set
    where the weight is at least levels[i], with levels nonincreasing."""
    counts = np.searchsorted(-levels, -t, side="left")
    return np.where(counts > 0, measures[np.maximum(counts - 1, 0)], 0.0)


# ---------------------------------------------------------------------------
# the panel rule
# ---------------------------------------------------------------------------

# integrate: 10-point panels, 64 geometric ones on (b 2^-60, b) after one on
# (0, b 2^-60), halved until two rounds agree to 1e-13, at most 10 rounds
_QUAD_ORDER, _QUAD_PANELS, _QUAD_DEPTH = 10, 64, 60
_QUAD_RTOL, _QUAD_ROUNDS = 1e-13, 10


@lru_cache(maxsize=None)
def _legendre_rule(order: int):
    """The order-point Gauss-Legendre nodes and weights on [-1, 1], built
    once per order and read-only."""
    g, gw = np.polynomial.legendre.leggauss(order)
    g.flags.writeable = gw.flags.writeable = False
    return g, gw


def gauss_panels(edges, order: int):
    """Nodes and weights of the order-point Gauss-Legendre rule on each
    panel [edges[i], edges[i + 1]], raveled panel by panel."""
    g, gw = _legendre_rule(order)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * g[None, :]
    return nodes.ravel(), (half[:, None] * gw[None, :]).ravel()


def integrate(f, b: float, breaks=()):
    """int_0^b f(t) dt for a nonnegative f, as (value, error).

    Gauss-Legendre panels graded geometrically toward 0, split also at every
    breakpoint in (0, b), are halved until two rounds agree within
    ``_QUAD_RTOL`` of the value; error is their difference.  f takes the
    nodes of a round as one array.  A rule that has not converged after
    ``_QUAD_ROUNDS`` rounds raises DivergenceError, as 1/t does on (0, 1),
    and so does a round whose sum is not finite.
    """
    grid = b * np.geomspace(2.0 ** -_QUAD_DEPTH, 1.0, _QUAD_PANELS + 1)
    edges = np.unique(np.concatenate([[0.0], grid, [x for x in breaks if 0.0 < x < b]]))
    last = None
    for _ in range(_QUAD_ROUNDS):
        nodes, weights = gauss_panels(edges, _QUAD_ORDER)
        value = float(weights @ f(nodes))
        if not math.isfinite(value):
            break
        if last is not None and abs(value - last) <= _QUAD_RTOL * abs(value):
            return value, abs(value - last)
        last = value
        halved = np.empty(2 * edges.size - 1)
        halved[::2], halved[1::2] = edges, edges[:-1] + 0.5 * np.diff(edges)
        edges = halved
    raise DivergenceError(f"the panel rule did not converge on (0, {b})")


# ---------------------------------------------------------------------------
# gridded weights
# ---------------------------------------------------------------------------

class GridField:
    """Complex ``values`` on grid cells; subclasses supply ``cell_masses()``."""

    def ess_sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def levels(self):
        """|values| sorted descending, with the cumulated cell mass of each
        value and all above it: the step form of the distribution."""
        vals = np.abs(self.values).ravel()
        masses = self.cell_masses().ravel()
        order = np.argsort(vals)[::-1]
        return vals[order], np.cumsum(masses[order])

    def mu(self, t) -> np.ndarray:
        """Mass of the cells where |value| > t, elementwise in t."""
        return _step_mu(*self.levels(), np.asarray(t, dtype=float))


@dataclass(frozen=True)
class WeightField(GridField):
    """Complex weight sampled at cell centers of a square phase-plane box.

    The box is [-half_width, half_width]^2; values[i, j] is the sample at
    (x_i, omega_j) with x_i = -half_width + (i + 1/2) * cell, and every
    cell carries its Lebesgue area.
    """

    half_width: float
    n: int
    values: np.ndarray

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
        return np.full((self.n, self.n), self.cell_area)


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

class MeasureProfile:
    """Nonincreasing radial weight, handled through the measure s of its
    superlevel sets.

    Subclasses are frozen dataclasses with the fields kind, amplitude, cap,
    knots and knot_values.  Their five kinds are an indicator, an analytic
    family, the family capped at ``cap``, left-continuous steps on
    ``knots`` and a constant.  A subclass lists its kind names in
    ``_KINDS`` in that order, with the first three also as ``_INDICATOR``,
    ``_FAMILY`` and ``_TRUNCATED``, bounds its knots by ``_COORD_MAX`` and
    supplies
      measure(coord)  its radial coordinate -> s (floats or arrays)
      edge            the coordinate where the indicator ends
      _family(coord)  the untruncated analytic profile
      _family_mu(t)   s of {family > t}, for 0 < t < amplitude
      _family_lp(p)   the L^p norm of the family and truncated kinds.
    """

    _COORD_MAX = math.inf

    def _validate(self):
        if self.kind not in self._KINDS:
            raise InvalidInputError(f"unknown profile kind {self.kind!r}")
        if self.amplitude < 0:
            raise InvalidInputError("amplitude must be nonnegative")
        if self.kind == self._TRUNCATED and not (0 < self.cap < self.amplitude):
            raise InvalidInputError("truncation requires 0 < cap < amplitude")
        if self.kind == "sampled":
            r = np.asarray(self.knots, dtype=float)
            v = np.asarray(self.knot_values, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size == 0:
                raise InvalidInputError("sampled profile needs matching 1-d knots/values")
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
                raise InvalidInputError("sampled profile must be finite")
            if r[0] <= 0 or r[-1] >= self._COORD_MAX or np.any(np.diff(r) <= 0):
                raise InvalidInputError(
                    f"knots must increase strictly inside (0, {self._COORD_MAX})")
            if np.any(v < 0) or np.any(np.diff(v) > 0):
                raise InvalidInputError("sampled values must be nonnegative and nonincreasing")
            object.__setattr__(self, "knots", r)
            object.__setattr__(self, "knot_values", v)

    def __call__(self, coord):
        coord = np.asarray(coord, dtype=float)
        if self.kind == self._INDICATOR:
            return np.where(coord < self.edge, self.amplitude, 0.0)
        if self.kind == self._FAMILY:
            return self._family(coord)
        if self.kind == self._TRUNCATED:
            return np.minimum(self._family(coord), self.cap)
        if self.kind == "constant":
            return np.full_like(coord, self.amplitude, dtype=float)
        # sampled: value v[i] on (knots[i-1], knots[i]], zero past the last knot
        idx = np.searchsorted(self.knots, coord, side="left")
        out = np.zeros_like(coord, dtype=float)
        inside = idx < self.knots.size
        out[inside] = self.knot_values[idx[inside]]
        return out

    def ess_sup(self) -> float:
        if self.kind == self._TRUNCATED:
            return self.cap
        if self.kind == "sampled":
            return float(self.knot_values[0])
        return float(self.amplitude)

    def lp_norm(self, p: float) -> float:
        """(int rho^p ds)^{1/p}, the L^p norm against the setting's measure."""
        _check_exponent(p)
        kind = self.kind
        if kind == "sampled":
            steps = np.diff(self.measure(self.knots), prepend=0.0)
            return float(np.sum(self.knot_values ** p * steps) ** (1.0 / p))
        if kind == "constant":
            raise DivergenceError("a constant profile is not in L^p")
        if kind == self._INDICATOR:
            return float(self.amplitude * self.measure(self.edge) ** (1.0 / p))
        return self._family_lp(p)

    def mu(self, t) -> np.ndarray:
        """Measure s of the superlevel set {rho > t}, elementwise in t."""
        t = np.asarray(t, dtype=float)
        if self.kind == self._INDICATOR:
            return np.where(t < self.amplitude, self.measure(self.edge), 0.0)
        if self.kind == "sampled":
            return _step_mu(self.knot_values, self.measure(self.knots), t)
        if self.kind == "constant":
            raise DivergenceError("a constant profile has superlevel sets of infinite measure")
        # superlevel sets below a cap are those of the untruncated family
        mu = np.zeros_like(t)
        good = t < self.ess_sup()
        mu[good] = self._family_mu(t[good])
        return mu

    def step_eigenvalues(self, ks: np.ndarray, cdf, *params) -> np.ndarray:
        """lambda_k of the indicator, sampled and constant kinds.

        cdf(k, s, *params) is the setting's k-th spectral distribution
        function in the measure coordinate; a step of height v on
        (s_{i-1}, s_i] contributes v (cdf(k, s_i) - cdf(k, s_{i-1})).
        """
        if self.kind == self._INDICATOR:
            return self.amplitude * cdf(ks, self.measure(self.edge), *params)
        if self.kind == "constant":
            return np.full(ks.size, float(self.amplitude))
        s = np.concatenate([[0.0], self.measure(self.knots)])
        return np.diff(cdf(ks[:, None], s[None, :], *params), axis=1) @ self.knot_values


@dataclass(frozen=True)
class RadialProfile(MeasureProfile):
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

    _KINDS = ("ball_indicator", "gaussian", "truncated_gaussian", "sampled", "constant")
    _INDICATOR, _FAMILY, _TRUNCATED = _KINDS[:3]

    def __post_init__(self):
        self._validate()
        if self.scale <= 0 or self.dim < 1:
            raise InvalidInputError("scale must be > 0 and dim >= 1")
        if self.kind == "ball_indicator" and self.radius <= 0:
            raise InvalidInputError("ball needs a positive radius")

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

    # -- the plane's coordinate and family -----------------------------------
    def measure(self, r):
        """Volume (pi r^2)^d / d! of the ball of radius r in R^{2d}."""
        return (math.pi * r ** 2) ** self.dim / math.factorial(self.dim)

    @property
    def edge(self) -> float:
        return self.radius

    def _family(self, r):
        return self.amplitude * np.exp(-math.pi * r * r / self.scale)

    def _family_mu(self, t):
        # a difference of logs: amplitude / t overflows for t < amplitude / DBL_MAX
        log_ratio = math.log(self.amplitude) - np.log(t)
        return (self.scale * log_ratio) ** self.dim / math.factorial(self.dim)

    def _family_lp(self, p: float) -> float:
        d = self.dim
        if self.kind == "gaussian":
            # int |rho|^p dz = amplitude^p (scale/p)^d in the volume coordinate
            return float(self.amplitude * (self.scale / p) ** (d / p))
        # cap^p times the capped volume tau0^d / d!, plus the Gaussian tail
        # amplitude^p (scale/p)^d Q(d, p s0) = cap^p (scale/p)^d e_{d-1}(p s0),
        # since Q(d, y) e^y = e_{d-1}(y); amplitude^p would overflow
        s0 = math.log(self.amplitude / self.cap)
        tau0 = self.scale * s0
        tail = (self.scale / p) ** d * (1.0 + expm1_poly(d - 1, p * s0))
        return float(self.cap * (tau0 ** d / math.factorial(d) + tail) ** (1.0 / p))

    def on_grid(self, half_width: float, n: int) -> WeightField:
        """Sample onto a centered square grid (profile center included)."""
        ax = -half_width + (np.arange(n) + 0.5) * (2 * half_width / n)
        dx = ax[:, None] - self.center[0]
        dy = ax[None, :] - self.center[1]
        return WeightField(half_width, n, self(np.hypot(dx, dy)).astype(complex))


# ---------------------------------------------------------------------------
# distribution bound
# ---------------------------------------------------------------------------

def distribution_bound(w, G) -> float:
    """int_0^inf G(mu(t)) dt, the distribution-function norm bound.

    G is the concentration ceiling of the weight's setting, taking measures
    s.  Grid fields and sampled profiles have step distributions, so the
    integral is an exact sum; the other profile kinds are integrated by the
    panel rule against the analytic mu, as an oracle.
    """
    if isinstance(w, GridField):
        levels, measures = w.levels()
    elif isinstance(w, MeasureProfile) and w.kind == "sampled":
        levels, measures = w.knot_values, w.measure(w.knots)
    elif isinstance(w, MeasureProfile):
        return integrate(lambda t: G(w.mu(t)), w.ess_sup())[0]
    else:
        raise InvalidInputError(f"unsupported weight type {type(w).__name__}")
    drops = levels - np.concatenate([levels[1:], [0.0]])
    return float(np.sum(G(measures) * drops))


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
    equimeasurable with |w| exactly (at grid resolution).  Plane fields
    only: rearrangement against another measure is not radial in the plane.
    """
    if not isinstance(w, WeightField):
        raise InvalidInputError("symmetrization is defined for phase-plane fields")
    vals, cum = w.levels()
    n = np.count_nonzero(vals)
    if n == 0:
        return RadialProfile.sampled([w.cell], [0.0])
    vals = vals[:n]
    radii = np.sqrt(cum[:n] / math.pi)
    # merge equal-value runs so knots stay strictly increasing and minimal
    keep = np.nonzero(np.diff(vals, append=-1.0) != 0.0)[0]
    return RadialProfile.sampled(radii[keep], vals[keep])


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(w, p: float) -> float:
    """L^p norm of a weight: grid fields sum |value|^p over their cell
    masses, profiles integrate in their measure coordinate (closed forms
    for the analytic kinds)."""
    if isinstance(w, MeasureProfile):
        return w.lp_norm(p)
    if isinstance(w, GridField):
        _check_exponent(p)
        return float(np.sum(np.abs(w.values) ** p * w.cell_masses()) ** (1.0 / p))
    raise InvalidInputError(f"unsupported weight type {type(w).__name__}")
