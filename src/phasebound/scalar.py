"""Constraint data, the two settings and the scalar numerics shared across modules.

Both bounds follow one scheme, ||L_F|| <= int G(mu_F(t)) dt with the
setting's ceiling G.  A ``ConstraintSet`` builds its setting once,
``Plane(d)`` or ``Disc(beta)``, which owns its bound, G, (G')^{-1}, G'(0),
its extremal family and its CSV sampling.  A setting is also the geometry
of a ``core.MeasureProfile``: the map from its radial coordinate to the
measure s, the coordinate's bound, the family's value, mu and L^p norm,
its center and its grid sampling; ``Plane(d)`` for profiles on R^{2d}, the
class ``Disc`` for profiles on the disc, whose geometry has no beta; an
instance is also a profile's spectral law.  This module imports the
standard library alone, and so does ``bounds``: a closed-form bound loads
no numpy.  The settings look ``bounds``, numpy and the array modules up
at call time.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DivergenceError, InvalidInputError, RegimeError, UnattainedBoundError

__all__ = ["ConstraintSet", "Plane", "Disc"]

FOUR_PI = 4.0 * math.pi


def expm1_poly(n: int, x):
    """e_n(x) - 1 = sum_{1 <= i <= n} x^i / i!, by Horner.

    e_n is the degree-n Taylor polynomial of exp.  Returning e_n - 1 keeps
    full relative precision for small x, as ``math.expm1`` does.
    """
    out = 0.0
    for i in range(n, 0, -1):
        out = x / i * (1.0 + out)
    return out


@lru_cache(maxsize=None)
def series_length(d: int) -> int:
    """Terms of sum_{j >= 1} d! x^j / (d + j)! that the series of P(d, x) keeps.

    At x < d the j-th term is below t_j = prod_{i <= j} d / (d + i), and the
    terms after it add at most t_j d / (j + 1); stop once that is below
    2^-53 of the sum, which is at least 1.
    """
    n, term = 0, 1.0
    while term * d > 2.0 ** -53 * (n + 1):
        n += 1
        term *= d / (d + n)
    return n


def _exp_or_inf(x: float) -> float:
    """e^x, inf past the doubles (e^709.78 is within 0.3% of the largest)."""
    return math.exp(x) if x < 709.78 else math.inf


def _times_power(b: float, base: float, x: float) -> float:
    """b base^x: the plain product where base^x is well inside the normal
    doubles, else one exp of the summed logs (inf past the float range)."""
    log_power = x * math.log(base)
    if abs(log_power) < 708.0:
        return b * base ** x
    return _exp_or_inf(math.log(b) + log_power) if b else 0.0


def _check_exponent(p: float):
    """The paper's exponent domain 1 <= p < inf; NaN is rejected too."""
    if not 1 <= p < math.inf:
        raise InvalidInputError(f"p must satisfy 1 <= p < inf, got {p}")


@dataclass(frozen=True)
class Plane:
    """The time-frequency setting R^{2d}: ceiling G(s) = P(d, (d! s)^{1/d})
    (Nicola-Tilli), the Gaussian lam e^{-pi r^2/(p-1)}, CSV coordinate r.
    Profiles are radial in r about a center (x0, omega0), with shape the
    Gaussian's scale p - 1 > 0."""

    d: int = 1
    coordinate, coord_max, shape_min, origin = "r", math.inf, 0.0, (0.0, 0.0)

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 1):
            raise InvalidInputError("gabor constraints need integer d >= 1")

    def bound(self, c):
        from . import bounds
        return bounds.gabor_bound(c)

    def extremal_weight(self, c):
        from . import extremals
        return extremals.extremal_weight_gabor(c)

    def g(self, s):
        from . import bounds
        return bounds.G(s, self.d)

    def gprime_inv(self, y):
        """Solve e^{-(d! u)^{1/d}} = y for u, clamped to 0 when y >= 1."""
        import numpy as np
        y = np.asarray(y, dtype=float)
        u = np.zeros_like(y)
        low = y < 1.0
        u[low] = (-np.log(y[low])) ** self.d / math.factorial(self.d)
        return u

    def gprime_zero(self) -> float:
        """G'(0), the largest useful multiplier at t = 1."""
        return 1.0

    def indicator(self, amplitude: float, volume: float) -> dict:
        """amplitude on the ball of 2d-volume ``volume`` (area when d = 1)."""
        d = self.d
        try:
            root = (volume * math.factorial(d)) ** (1.0 / d)
        except OverflowError:
            root = math.inf
        if root == math.inf:
            # d! or d! volume is past the doubles; the root is not
            root = math.exp((math.log(volume) + math.lgamma(d + 1)) / d)
        radius = math.sqrt(root / math.pi)
        if not radius > 0:
            raise InvalidInputError("ball needs a positive radius")
        return {"setting": self, "kind": "indicator", "amplitude": amplitude, "edge": radius}

    def family(self, c, lam: float, cap: float) -> dict:
        return {"setting": self, "kind": "family" if cap == math.inf else "truncated",
                "amplitude": lam, "shape": c.p - 1.0, "cap": cap}

    # -- the geometry of a profile -------------------------------------------
    def measure(self, r):
        """Volume (pi r^2)^d / d! of the ball of radius r in R^{2d}, at a float
        or an array.  Where the power overflows, the same arithmetic runs on
        r 2^-k, exact, and is scaled back by 2^{2kd}; a volume past the
        doubles raises."""
        d = self.d
        if isinstance(r, (float, int)):
            try:
                return (math.pi * float(r) ** 2) ** d / math.factorial(d)
            except OverflowError:   # as the 0-d array below
                pass
        import numpy as np
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):
            v = (math.pi * r ** 2) ** d / math.factorial(d)
            big = v == math.inf
            if big.any():
                k = np.frexp(r)[1]
                v = np.where(big, np.ldexp((math.pi * np.ldexp(r, -k) ** 2) ** d
                                           / math.factorial(d), 2 * k * d), v)
                if np.any(v == math.inf):
                    raise InvalidInputError("a ball's volume is past the doubles")
        return v

    def family_value(self, w, r):
        import numpy as np
        return w.amplitude * np.exp(-math.pi * r * r / w.shape)

    def family_mu(self, w, t):
        import numpy as np
        # a difference of logs: amplitude / t overflows for t < amplitude / DBL_MAX
        log_ratio = math.log(w.amplitude) - np.log(t)
        return (w.shape * log_ratio) ** self.d / math.factorial(self.d)

    def family_lp(self, w, p: float) -> float:
        d = self.d
        if w.kind == "family":
            # int |rho|^p dz = amplitude^p (scale/p)^d in the volume coordinate
            return _times_power(w.amplitude, w.shape / p, d / p)
        # cap^p times the capped volume tau0^d / d!, plus the Gaussian tail
        # amplitude^p (scale/p)^d Q(d, p s0) = cap^p (scale/p)^d e_{d-1}(p s0),
        # since Q(d, y) e^y = e_{d-1}(y); amplitude^p would overflow
        s0 = math.log(w.amplitude / w.cap)
        try:
            bracket = ((w.shape * s0) ** d / math.factorial(d)
                       + (w.shape / p) ** d * (1.0 + expm1_poly(d - 1, p * s0)))
        except OverflowError:
            bracket = math.inf
        if bracket < math.inf:
            return w.cap * bracket ** (1.0 / p)
        # a term past the doubles: the bracket's log from the two terms' logs
        from .bounds import _log_exp_poly
        log_s0 = math.log(s0 if s0 < math.inf else math.log(w.amplitude) - math.log(w.cap))
        a = d * (math.log(w.shape) + log_s0) - math.lgamma(d + 1)
        b = d * (math.log(w.shape) - math.log(p)) + _log_exp_poly(d - 1, math.log(p) + log_s0)
        return _exp_or_inf(math.log(w.cap) + (max(a, b) + math.log1p(math.exp(-abs(a - b)))) / p)

    def check_center(self, center):
        """(x0, omega0) as a tuple of floats, from a pair of finite reals."""
        try:
            x0, y0 = center
            if math.isfinite(x0) and math.isfinite(y0):
                return float(x0), float(y0)
        except (TypeError, ValueError):
            pass
        raise InvalidInputError(f"center must be a pair of finite reals, got {center!r}")

    def on_grid(self, w, half_width: float, n: int):
        """w on the centered square grid of ``core.WeightField``, about w's center."""
        import numpy as np

        from .core import WeightField
        ax = WeightField.cell_centers(half_width, n)
        dx = ax[:, None] - w.center[0]
        dy = ax[None, :] - w.center[1]
        return WeightField(half_width, n, w(np.hypot(dx, dy)))

    # -- the spectral law: Poisson(s), the Hermite functions' ------------------
    def check_spectral(self, geometry):
        """Spectra and polar assembly for d = 1 alone, of this law and ``geometry``."""
        if self.d != 1 or geometry != self:
            raise RegimeError("spectral computation is restricted to d = 1")

    def sums(self, K: int, s):
        """Heads Q(k + 1, s) and tails P(k + 1, s), k < K, of Poisson(s), s one or a row."""
        import numpy as np

        from . import core
        return core.head_tail(K, np.exp(-s), lambda: -s, s, 0.0)

    def ratios(self, K: int, shape: float):
        """lambda_k / amplitude = (scale / (1 + scale))^{k + 1} of the Gaussian."""
        import numpy as np
        return (shape / (1.0 + shape)) ** np.arange(1.0, K + 1.0)

    def cap_columns(self, K: int, w):
        """P(k + 1, s0) below the cap's edge s0, and Q(k + 1, (1 + 1/scale) s0)."""
        import numpy as np
        s0 = w.shape * math.log(w.amplitude / w.cap)
        Q, P = self.sums(K, np.array([s0, (1.0 + 1.0 / w.shape) * s0]))
        return P[:, 0], Q[:, 1]

    # -- CSV sampling ----------------------------------------------------------
    def sample_grid(self, params: dict, n: int) -> list:
        """linspace(r_max / n, r_max, n), bitwise numpy's.  r_max lies past
        the ball's edge, or where the Gaussian has fallen to 1e-12 of its
        peak lam, or of its cap A < lam: the cap adds log(lam / A) of decay."""
        if params["kind"] == "indicator":
            r_max = params["edge"] * 1.25
        else:
            scale, lam, cap = params["shape"], params["amplitude"], params["cap"]
            capped = math.log(lam) - math.log(cap) if cap < lam else 0.0
            r_max = math.sqrt((scale * 12.0 * math.log(10.0) + scale * capped) / math.pi)
        start = r_max / n
        step = (r_max - start) / (n - 1)
        return [i * step + start for i in range(n - 1)] + [r_max]

    def family_values(self, params: dict, coords: list) -> list:
        a, scale, cap = float(params["amplitude"]), params["shape"], params["cap"]
        return [min(a * math.exp(-math.pi * r * r / scale), cap) for r in coords]


@dataclass(frozen=True)
class Disc:
    """The Cauchy-wavelet setting, the disc: ceiling G_beta(s) = 1 - (1 +
    s/(4 pi))^{-2 beta} (Ramos-Tilli), the power lam (1 - x)^{1/alpha} of
    x = |w|^2, CSV coordinate x.  Profiles are radial in x in the disc model
    about a center in the upper half-plane, with shape the power's exponent
    1/alpha; their geometry is the class's, free of beta."""

    beta: float = 1.0
    coordinate, coord_max, shape_min, origin = "x", 1.0, -math.inf, 1j

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise InvalidInputError("wavelet constraints need 0 < beta < inf")

    def bound(self, c):
        from . import bounds
        return bounds.wavelet_bound(c)

    def extremal_weight(self, c):
        from . import extremals
        return extremals.extremal_weight_wavelet(c)

    def g(self, s):
        from . import bounds
        return bounds.G_beta(s, self.beta)

    def gprime_inv(self, y):
        """Solve (2 beta / 4 pi)(1 + u/4 pi)^{-(2 beta + 1)} = y, clamped."""
        import numpy as np
        y = np.asarray(y, dtype=float)
        h = y * (4.0 * math.pi) / (2.0 * self.beta)
        u = np.zeros_like(y)
        low = h < 1.0
        u[low] = 4.0 * math.pi * (h[low] ** (-1.0 / (2.0 * self.beta + 1.0)) - 1.0)
        return u

    def gprime_zero(self) -> float:
        return 2.0 * self.beta / (4.0 * math.pi)

    @staticmethod
    def indicator(amplitude: float, nu_measure: float) -> dict:
        """amplitude on the hyperbolic disc of that nu-measure, x below the edge."""
        x = nu_measure / (nu_measure + 4.0 * math.pi)
        if not 0 < x < 1:
            raise InvalidInputError("indicator threshold must lie in (0, 1)")
        return {"setting": Disc, "kind": "indicator", "amplitude": amplitude, "edge": x}

    def family(self, c, lam: float, cap: float) -> dict:
        return {"setting": Disc, "kind": "family" if cap == math.inf else "truncated",
                "amplitude": lam, "shape": 1.0 / c.alpha, "cap": cap}

    # -- the geometry of a profile -------------------------------------------
    @staticmethod
    def measure(x):
        """nu-measure 4 pi x / (1 - x) of the disc {|w|^2 < x}."""
        return FOUR_PI * x / (1.0 - x)

    @staticmethod
    def family_value(w, x):
        return w.amplitude * (1.0 - x) ** w.shape

    @staticmethod
    def family_mu(w, t):
        return FOUR_PI * ((t / w.amplitude) ** (-1.0 / w.shape) - 1.0)

    @staticmethod
    def family_lp(w, p: float) -> float:
        if p * w.shape <= 1:
            raise DivergenceError("power profile not in L^p(d nu): need p * exponent > 1")
        if w.kind == "family":
            return _times_power(w.amplitude, FOUR_PI / (p * w.shape - 1.0), 1.0 / p)
        # cap^p 4 pi (q - t) / t, t = (cap / amplitude)^{1/e} the cap edge's 1 - x and
        # q = p e / (p e - 1): in logs, as 1/t may overflow, and past exp's range log cap too
        log_inv_t = (math.log(w.amplitude) - math.log(w.cap)) / w.shape
        q = p * w.shape / (p * w.shape - 1.0)
        log_ratio = (math.log(FOUR_PI) + log_inv_t + math.log(q - math.exp(-log_inv_t))) / p
        return (w.cap * math.exp(log_ratio) if log_ratio < 709.0
                else _exp_or_inf(math.log(w.cap) + log_ratio))

    @staticmethod
    def check_center(center):
        """A complex center with finite parts, in the upper half-plane."""
        if not (isinstance(center, numbers.Complex) and math.isfinite(center.real)
                and 0 < center.imag < math.inf):
            raise InvalidInputError(f"center must be finite, in the upper half-plane: {center!r}")
        return center

    @staticmethod
    def on_grid(w, grid):
        """w at the cell centers of a ``wavelet.HalfPlaneGrid``."""
        from .wavelet import HalfPlaneField
        return HalfPlaneField(grid, w(Disc.grid_coordinate(w.center, grid)))

    @staticmethod
    def grid_coordinate(center, grid):
        """x = |(z - c) / (z - conj c)|^2 at the cell centers, shape (nx, ny):
        (dx^2 + (y - y0)^2) / (dx^2 + (y + y0)^2) with dx = x - x0, from
        the two axes broadcast against each other."""
        dx2 = ((grid.x - center.real) ** 2)[:, None]
        x = dx2 + (grid.y - center.imag) ** 2
        x /= dx2 + (grid.y + center.imag) ** 2
        return x

    # -- the spectral law: negative binomial, the disc monomials' -------------
    def check_spectral(self, geometry):
        """The laws' parameter b = 2 beta must be a double."""
        if 2.0 * self.beta == math.inf:
            raise InvalidInputError("beta is too large: 2 beta overflows")

    @staticmethod
    def negbin_sums(K: int, b, x, t):
        """Heads 1 - I_x(k + 1, b) and tails I_x(k + 1, b), k < K, t = 1 - x exact."""
        import numpy as np

        from . import core
        # numpy's power for floats too: Python's may differ in the last bit
        return core.head_tail(K, np.power(t, b), lambda: b * np.log(t), x * (b - 1.0), x)

    def sums(self, K: int, s):
        """``negbin_sums`` at b = 2 beta and x = s / (s + 4 pi) of the nu-measure s."""
        return self.negbin_sums(K, 2.0 * self.beta, s / (s + FOUR_PI), FOUR_PI / (s + FOUR_PI))

    def ratios(self, K: int, shape: float):
        """B(k + 1, b + shape) / B(k + 1, b), k < K, b = 2 beta: the product of
        R_0 = b / (b + shape) and R_k / R_{k-1} = (k + b) / (k + b + shape)."""
        import numpy as np
        b = 2.0 * self.beta
        if b + shape <= 0:
            raise DivergenceError(f"Beta integral diverges: exponent {shape} <= -2 beta")
        r = [b / (b + shape)]
        for k in range(1, K):
            r.append(r[-1] * (k + b) / (k + b + shape))
        return np.array(r)

    def cap_columns(self, K: int, w):
        """I_x*(k + 1, b) below the cap's edge x*, and 1 - I_x*(k + 1, b + exponent)."""
        import numpy as np
        b = 2.0 * self.beta
        # the capped set is x < x* = 1 - t, with t exact in the parameters
        t = (w.cap / w.amplitude) ** (1.0 / w.shape)
        I = self.negbin_sums(K, np.array([b, b + w.shape]), 1.0 - t, t)[1]
        # 1 - I cancels for the (b + exponent) law: fault 3, ROADMAP item 1
        return I[:, 0], 1.0 - I[:, 1]

    # -- CSV sampling ----------------------------------------------------------
    @staticmethod
    def sample_grid(params: dict, n: int) -> list:
        """The n interior points of linspace(0, 1, n + 2), bitwise numpy's."""
        step = 1.0 / (n + 1)
        return [i * step for i in range(1, n + 1)]

    @staticmethod
    def family_values(params: dict, coords: list) -> list:
        a, exponent, cap = float(params["amplitude"]), params["shape"], params["cap"]
        return [min(a * (1.0 - x) ** exponent, cap) for x in coords]


@dataclass(frozen=True)
class ConstraintSet:
    """The constraint triple (p, A, B) plus the transform parameter d or beta.

    A may be math.inf (drops the sup constraint); that case is rejected for
    p = 1, where the optimal constant B is a supremum and not attained.
    ``setting`` is the transform's ``Plane(d)`` or ``Disc(beta)``.
    """

    p: float
    A: float
    B: float
    transform: str = "gabor"
    d: int = 1
    beta: float = 1.0
    setting: Plane | Disc = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_exponent(self.p)
        if not (self.A > 0):
            raise InvalidInputError("A must be positive (possibly inf)")
        if not (0 < self.B < math.inf):
            raise InvalidInputError("B must be positive and finite")
        if self.p == 1 and math.isinf(self.A):
            raise UnattainedBoundError(self.B)
        if self.transform not in ("gabor", "wavelet"):
            raise InvalidInputError("transform must be 'gabor' or 'wavelet'")
        setting = Plane(self.d) if self.transform == "gabor" else Disc(self.beta)
        object.__setattr__(self, "setting", setting)

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
