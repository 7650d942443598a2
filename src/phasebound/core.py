"""Phase-space weights in the measure coordinate: norms, distribution
functions, distribution bounds and rearrangements.

A weight enters the sharp bounds only through the measure s of its
superlevel sets, and this module owns that coordinate.  On the plane
R^{2d}, s = (pi r^2)^d / d! is the volume of the ball of radius r; on the
disc model of the half-plane (``wavelet``), s = 4 pi x / (1 - x) is the
hyperbolic measure of {|w|^2 < x}.  Everything that does not depend on the
geometry is written once, in s:

  GridField       values on cells of known mass (``WeightField`` here,
                  ``HalfPlaneField`` in ``wavelet``), stored real (float64)
                  unless some imaginary part is nonzero (complex128), with
                  the exact step distribution function mu(t) of their cell
                  values and their L^p norm;
  MeasureProfile  the one nonincreasing radial profile of either setting,
                  of kind indicator, family, truncated, sampled or
                  constant: validation, evaluation, ess_sup, the L^p norm,
                  mu(t), the one radial spectrum (``eigenvalues``) and the
                  grid sampling (``RadialProfile`` here and ``DiscProfile``
                  in ``wavelet`` are its named constructors);
  distribution_bound  int_0^inf G(mu(t)) dt for the ceiling G of a setting;
  gauss_panels, integrate  the Gauss-Legendre panel rule of every oracle
                  integral, and its refinement on (0, b) with an error
                  estimate.

Every weight, gridded or radial, answers the same exact mu(t), the measure
of {|w| > t}, and the bounds read nothing else of it.  A setting
(``scalar.Plane(d)`` or ``scalar.Disc``) supplies a profile's geometry: its
coordinate map, its analytic family (a Gaussian in pi r^2, a power of
1 - x) and its grid (grid fields name theirs); as a spectral law it adds
its CDFs, the sums of ``head_tail``, its families' ratios and cap columns,
and the basis that ``gabor.assemble`` sums.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain

import numpy as np

from .errors import DivergenceError, InvalidInputError, RegimeError
from .scalar import Disc, Plane, _check_exponent

__all__ = [
    "positive_int",
    "head_tail",
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


def positive_int(value, name: str) -> int:
    """value as an int >= 1, numpy's integers too, bool, float and str
    refused: the one check of a basis size K, points per cell and a dim."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidInputError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _step_mu(levels: np.ndarray, measures: np.ndarray, t) -> np.ndarray:
    """mu(t) of a step distribution: measures[i] is the measure of the set
    where the weight is at least levels[i], with levels nonincreasing."""
    counts = np.searchsorted(-levels, -t, side="left")
    return np.where(counts > 0, measures[np.maximum(counts - 1, 0)], 0.0)


# ---------------------------------------------------------------------------
# spectral laws
# ---------------------------------------------------------------------------

# head_tail sums T_k from the top past a head C_k of _SWITCH, unless the
# ratio bound rho reaches _RHO_MAX; a far table holds at most _FAR_TABLE
# masses; up to _FLOAT_LAWS laws are summed in Python floats
_SWITCH = 0.9
_RHO_MAX = 1.0 - 2.0 ** -10
_FAR_TABLE = 1 << 16
_FLOAT_LAWS = 2
_ULP = 2.0 ** -53


def head_tail(K: int, c0, log_c0, alpha, beta):
    """Head sums C_k and tail sums T_k, k < K, each (K, m), of the laws with
    masses c_j = c_{j-1} (beta + alpha / j): Poisson(s) (c_0 = e^{-s},
    alpha = s, beta = 0; DLMF 8.4.10) on the plane, the negative binomial
    (c_0 = t^b, alpha = x (b - 1), beta = x; DLMF 8.17) on the disc.
    c_0 is a float or a row of m laws, alpha has its shape, beta is a float
    or a row.  Masses are products of the ratios; below the normal doubles
    they are exp(log_c0() + their summed logs).

    T_k = 1 - C_k where C_k <= 0.9, within 9 times C's relative error, and
    is summed from the top where C_k > 0.9.  Past j = K - 1 the ratios lie
    below rho = beta + max(alpha, 0) / K, which is below 1 wherever
    C_{K-1} > 0.9 (at rho = 1 the masses still rise at K, and C_{K-1} is at
    most about 1/2).  The sum starts at the first c_j <= 2^-53 c_K
    (1 - rho) / rho, so it leaves out under 2^-53 T_{K-1}; n masses with
    rho^n <= 2^-53 (1 - rho) reach it, about 37 / (1 - rho) of them, so
    past rho = 1 - 2^-10 T stays 1 - C.  C_{K-1} > 0.9 there needs a disc
    law with b below about 0.02 (a Poisson rho is s / K), whose I = T is
    about b log(1 / (t K)), so 1 - C is within about 1 / b ulps.

    One or two laws with normal c_0 are summed in Python floats, where
    numpy's calls cost more than the sums; both forms do the same
    arithmetic in the same order, so a column is bitwise the same in either.
    """
    m = c0.size if isinstance(c0, np.ndarray) else 1
    if m <= _FLOAT_LAWS:
        laws = [v.tolist() if isinstance(v, np.ndarray) and v.ndim else [float(v)] * m
                for v in (c0, alpha, beta)]
        if min(laws[0]) >= sys.float_info.min:
            return _head_tail_floats(K, *laws)
    c = np.empty((K, m))
    c[0] = c0
    np.divide(alpha, np.arange(1.0, K)[:, None], out=c[1:])
    c[1:] += beta
    low = np.flatnonzero(c[0] < sys.float_info.min)
    log_c = np.add.accumulate(np.log(c[1:, low])) + np.ravel(log_c0())[low]
    np.multiply.accumulate(c, out=c)
    c[1:, low] = np.exp(log_c)
    head = np.add.accumulate(c)
    tail = 1.0 - head
    deep = np.flatnonzero(head[-1] > _SWITCH)
    if not deep.size:
        return head, tail
    a, b = (np.broadcast_to(v, (m,))[deep] for v in (alpha, beta))
    rho = np.maximum(a, 0.0) / K + b
    keep = (rho > 0.0) & (rho < _RHO_MAX)
    deep, a, b, rho = deep[keep], a[keep], b[keep], rho[keep]
    # n masses reach the stop; one more row holds the first mass past it
    n = np.ceil(np.log(_ULP * (1.0 - rho)) / np.log(rho)) + 1.0
    # longest tails first: a table of N rows takes the next tails longer
    # than N / 2, at most _FAR_TABLE masses
    order = np.argsort(-n, kind="stable")
    g = 0
    while g < order.size:
        N = int(n[order[g]])
        i = order[g:g + min(max(1, _FAR_TABLE // N), np.count_nonzero(n[order[g:]] > N / 2))]
        cols, g = deep[i], g + i.size
        # c_1 .. c_{K-1}, then the N masses past the head
        t = np.empty((K - 1 + N, i.size))
        t[:K - 1] = c[1:, cols]
        far = t[K - 1:]
        np.divide(a[i], np.arange(K, K + N)[:, None], out=far)
        far += b[i]
        far[0] *= c[-1, cols]
        np.multiply.accumulate(far, out=far)
        far[1:] *= far[:-1] > far[0] * ((1.0 - rho[i]) / rho[i] * _ULP)
        # T_{K-1} is the far masses summed from the top, T_{k-1} = T_k + c_k
        tail[:, cols] = np.add.accumulate(t[::-1])[N - 1:][::-1]
    np.copyto(tail, 1.0 - head, where=head <= _SWITCH)
    return head, tail


def _head_tail_floats(K, c0, alpha, beta):
    """``head_tail`` of laws with normal c_0, given as lists of floats."""
    heads, tails = [], []
    for c, a, b in zip(c0, alpha, beta):
        col = [c]
        for j in range(1, K):
            c *= a / j + b
            col.append(c)
        head = list(accumulate(col))
        rho = max(a, 0.0) / K + b
        if head[-1] > _SWITCH and 0.0 < rho < _RHO_MAX:
            c *= a / K + b
            far, stop, j = [c], c * ((1.0 - rho) / rho * _ULP), K
            while c > stop:
                j += 1
                c *= a / j + b
                far.append(c)
            # T_{K-1} .. T_0, as the table's tails from the top
            direct = list(accumulate(chain(reversed(far), col[:0:-1])))[:-K - 1:-1]
            tails += [d if h > _SWITCH else 1.0 - h for h, d in zip(head, direct)]
        else:
            tails += [1.0 - h for h in head]
        heads += head
    out = np.array(heads + tails).reshape(2, len(c0), K).transpose(0, 2, 1)
    return out[0], out[1]


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

def _scaled_lp(v: np.ndarray, masses, p: float) -> float:
    """(sum v^p masses)^{1/p} for v >= 0, as A (sum (v/A)^p masses)^{1/p}
    with A = max v, so that no power overflows or underflows where the norm
    is a double; 0 for v = 0.  A norm past the doubles, or masses below, raises."""
    A = float(np.max(v))
    if A == 0.0:
        return 0.0
    r = v / A
    r **= p
    r *= masses
    total = float(np.sum(r))
    if total < sys.float_info.min:
        raise InvalidInputError("the cell masses of the weight underflow the doubles")
    norm = A * total ** (1.0 / p)
    if norm == math.inf:
        raise InvalidInputError(f"the L^{p:g} norm of the weight overflows the doubles")
    return norm


class GridField:
    """Weight ``values`` on grid cells; subclasses supply ``cell_masses()``.

    The field decides its own storage: real, integer or bool values, and
    complex ones whose imaginary part is 0 everywhere, are stored as
    contiguous float64, and any other values as contiguous complex128.
    Shape and finiteness are checked once, here.  The field owns its
    values: an array that the caller still holds is copied, and the stored
    one is read-only, so no later write reaches a checked field.
    """

    def _store_values(self, shape: tuple):
        given = self.values
        v = np.asarray(given)
        if v.shape != shape:
            raise InvalidInputError(f"values must have shape {shape}, got {v.shape}")
        real = not (np.iscomplexobj(v) and np.any(v.imag))
        v = np.ascontiguousarray(v.real if real else v, dtype=float if real else complex)
        if v is given or not v.flags.owndata:
            v = v.copy()
        # on complex values isfinite covers both parts
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("weight values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

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

    def lp_norm(self, p: float) -> float:
        """(sum |value|^p cell mass)^{1/p}."""
        _check_exponent(p)
        return _scaled_lp(np.abs(self.values), self.cell_masses(), p)


@dataclass(frozen=True)
class WeightField(GridField):
    """Weight sampled at cell centers of a square phase-plane box, stored
    as ``GridField`` stores values: float64 when real, else complex128.

    The box is [-half_width, half_width]^2; values[i, j] is the sample at
    (x_i, omega_j) with x_i = -half_width + (i + 1/2) * cell, and every
    cell carries its Lebesgue area.
    """

    setting = Plane(1)
    half_width: float
    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.half_width <= 0:
            raise InvalidInputError("half_width must be positive")
        if self.n < 2:
            raise InvalidInputError("need at least 2 samples per axis")
        self._store_values((self.n, self.n))

    @staticmethod
    def cell_centers(half_width: float, n: int) -> np.ndarray:
        """-half_width + (i + 1/2) 2 half_width / n, i < n: the cell centers
        of every square grid of the plane, shared by both axes."""
        return -half_width + (np.arange(n) + 0.5) * (2.0 * half_width / n)

    @property
    def cell(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def cell_area(self) -> float:
        return self.cell ** 2

    @property
    def axis(self) -> np.ndarray:
        return self.cell_centers(self.half_width, self.n)

    def cell_masses(self) -> np.ndarray:
        return np.full((self.n, self.n), self.cell_area)


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureProfile:
    """Nonincreasing radial weight, handled through the measure s of its
    superlevel sets.

    ``setting`` is ``Plane(d)``, for rho(|z - center|) on R^{2d}, or
    ``Disc``, for rho(x) of x = |w|^2 in the disc model about ``center``;
    it supplies the geometry.  The kinds:
      indicator  amplitude below ``edge``, a ball's radius or a disc's x
      family     amplitude exp(-pi r^2 / shape), amplitude (1 - x)^shape
      truncated  min(family, cap), with 0 < cap < amplitude
      sampled    left-continuous steps: knot_values[i] on (knots[i-1], knots[i]]
      constant   amplitude everywhere
    Amplitude and shape are finite, shape nonzero and above the setting's
    ``shape_min``; the edge and the knots lie in (0, ``coord_max``).
    """

    setting: Plane | type[Disc]
    kind: str
    amplitude: float = 1.0
    shape: float = 1.0
    edge: float = 0.0
    cap: float = math.inf
    knots: np.ndarray | None = None
    knot_values: np.ndarray | None = None
    center: tuple[float, float] | complex = field(kw_only=True)

    def __post_init__(self):
        setting, kind = self.setting, self.kind
        if kind not in ("indicator", "family", "truncated", "sampled", "constant"):
            raise InvalidInputError(f"unknown profile kind {kind!r}")
        if not 0 <= self.amplitude < math.inf:
            raise InvalidInputError("amplitude must be finite and nonnegative")
        if not (setting.shape_min < self.shape < math.inf and self.shape != 0):
            raise InvalidInputError(
                f"shape must be finite, nonzero and above {setting.shape_min}")
        if kind == "indicator" and not 0 < self.edge < setting.coord_max:
            raise InvalidInputError(f"the indicator's edge must lie in (0, {setting.coord_max})")
        # a finite amplitude bounds the cap
        if kind == "truncated" and not 0 < self.cap < self.amplitude:
            raise InvalidInputError("truncation requires 0 < cap < amplitude")
        if kind == "sampled":
            r = np.asarray(self.knots, dtype=float)
            v = np.asarray(self.knot_values, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size == 0:
                raise InvalidInputError("sampled profile needs matching 1-d knots/values")
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
                raise InvalidInputError("sampled profile must be finite")
            if r[0] <= 0 or r[-1] >= setting.coord_max or np.any(np.diff(r) <= 0):
                raise InvalidInputError(
                    f"knots must increase strictly inside (0, {setting.coord_max})")
            if np.any(v < 0) or np.any(np.diff(v) > 0):
                raise InvalidInputError("sampled values must be nonnegative and nonincreasing")
            object.__setattr__(self, "knots", r)
            object.__setattr__(self, "knot_values", v)
        object.__setattr__(self, "center", setting.check_center(self.center))

    def __call__(self, coord):
        coord = np.asarray(coord, dtype=float)
        if self.kind == "indicator":
            return np.where(coord < self.edge, self.amplitude, 0.0)
        if self.kind == "family":
            return self.setting.family_value(self, coord)
        if self.kind == "truncated":
            return np.minimum(self.setting.family_value(self, coord), self.cap)
        if self.kind == "constant":
            return np.full_like(coord, self.amplitude, dtype=float)
        # sampled: value v[i] on (knots[i-1], knots[i]], zero past the last knot
        idx = np.searchsorted(self.knots, coord, side="left")
        out = np.zeros_like(coord, dtype=float)
        inside = idx < self.knots.size
        out[inside] = self.knot_values[idx[inside]]
        return out

    def ess_sup(self) -> float:
        if self.kind == "truncated":
            return self.cap
        if self.kind == "sampled":
            return float(self.knot_values[0])
        return float(self.amplitude)

    def lp_norm(self, p: float) -> float:
        """(int rho^p ds)^{1/p}, the L^p norm against the setting's measure;
        a norm past the doubles raises."""
        _check_exponent(p)
        kind = self.kind
        if kind == "sampled":
            return _scaled_lp(self.knot_values,
                              np.diff(self.setting.measure(self.knots), prepend=0.0), p)
        if kind == "constant":
            raise DivergenceError("a constant profile is not in L^p")
        norm = (self.amplitude * self.setting.measure(self.edge) ** (1.0 / p)
                if kind == "indicator" else self.setting.family_lp(self, p))
        if norm == math.inf:
            raise InvalidInputError(f"the L^{p:g} norm of the profile overflows the doubles")
        return float(norm)

    def mu(self, t) -> np.ndarray:
        """Measure s of the superlevel set {rho > t}, elementwise in t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "indicator":
            return np.where(t < self.amplitude, self.setting.measure(self.edge), 0.0)
        if self.kind == "sampled":
            return _step_mu(self.knot_values, self.setting.measure(self.knots), t)
        if self.kind == "constant":
            raise DivergenceError("a constant profile has superlevel sets of infinite measure")
        # superlevel sets below a cap are those of the untruncated family
        mu = np.zeros_like(t)
        good = t < self.ess_sup()
        mu[good] = self.setting.family_mu(self, t[good])
        return mu

    def check_spectrum(self, K: int, law) -> int:
        """K as an int >= 1, ``law`` the law of the profile's setting, and
        the profile about the law's origin."""
        K = positive_int(K, "K")
        law.check_spectral(self.setting)
        if self.center != law.origin:
            raise RegimeError(f"the spectrum needs the profile centered at {law.origin}")
        return K

    def eigenvalues(self, K: int, law) -> np.ndarray:
        """lambda_k = int rho*(s) d pi_k(s), k < K, against the laws of ``law``,
        ``Plane(1)`` or ``Disc(beta)``, from its ratios, cap columns and sums."""
        K = self.check_spectrum(K, law)
        if self.kind == "family":
            return self.amplitude * law.ratios(K, self.shape)
        if self.kind == "truncated":
            inside, beyond = law.cap_columns(K, self)
            return self.cap * inside + self.amplitude * law.ratios(K, self.shape) * beyond
        if self.kind == "indicator":
            return self.amplitude * law.sums(K, self.setting.measure(self.edge))[1][:, 0]
        if self.kind == "constant":
            return np.full(K, float(self.amplitude))
        s = np.concatenate([[0.0], self.setting.measure(self.knots)])
        return np.diff(law.sums(K, s)[1], axis=1) @ self.knot_values

    def on_grid(self, *grid):
        """The profile sampled by its setting: ``on_grid(half_width, n)``, a
        ``WeightField`` on the plane; ``on_grid(grid)``, a ``HalfPlaneField``
        on a ``HalfPlaneGrid`` for the disc."""
        return self.setting.on_grid(self, *grid)


def _plane(dim) -> Plane:
    """``Plane(dim)`` for any integral dim >= 1, numpy's integers too."""
    return Plane(positive_int(dim, "dim"))


class RadialProfile(MeasureProfile):
    """Named constructors of profiles on R^{2d}, setting ``Plane(dim)``:
    the ball of given 2d-volume, the Gaussian amplitude exp(-pi r^2 / scale)
    and its truncation at cap < amplitude, steps in r and a constant."""

    @classmethod
    def ball(cls, amplitude: float, volume: float, center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        """Indicator of the ball of given 2d-volume (area when dim=1)."""
        return cls(**_plane(dim).indicator(amplitude, volume), center=center)

    @classmethod
    def gaussian(cls, amplitude: float, scale: float, center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        return cls(_plane(dim), "family", amplitude, scale, center=center)

    @classmethod
    def truncated_gaussian(cls, amplitude: float, scale: float, cap: float,
                           center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        return cls(_plane(dim), "truncated", amplitude, scale, cap=cap, center=center)

    @classmethod
    def sampled(cls, knots, values, center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        return cls(_plane(dim), "sampled", knots=np.asarray(knots, float),
                   knot_values=np.asarray(values, float), center=center)

    @classmethod
    def constant(cls, level: float, center=(0.0, 0.0), dim: int = 1) -> "RadialProfile":
        return cls(_plane(dim), "constant", level, center=center)


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
        levels, measures = w.knot_values, w.setting.measure(w.knots)
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
    if isinstance(w, (MeasureProfile, GridField)):
        return w.lp_norm(p)
    raise InvalidInputError(f"unsupported weight type {type(w).__name__}")
