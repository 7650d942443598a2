"""The constrained variational problem behind the sharp bounds.

Maximize I(u) = int_0^A G(u(t)) dt over nonincreasing u >= 0 subject to
p int_0^A t^{p-1} u(t) dt <= B^p.  The maximizer saturates the constraint
and satisfies the stationarity relation G'(u(t)) = c t^{p-1}; inverting G'
gives the closed forms, and bisecting on the multiplier c gives an
independent numerical solver used as an optimality oracle.

The closed-form maximizer is the distribution function mu of the extremal
weight (Nicola-Tilli, arXiv 2207.08624): u = w.mu, so the sharp bound
int_0^A G(u) dt is the weight's own distribution bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import G, G_beta, gabor_bound, wavelet_bound
from .core import ConstraintSet, distribution_bound, quad
from .errors import InvalidInputError, RegimeError
from .extremals import extremal_weight_gabor, extremal_weight_wavelet

__all__ = [
    "GaborKernel",
    "WaveletKernel",
    "kernel_for",
    "SampledFunction",
    "VariationalSolution",
    "constraint_moment",
    "solve_closed_form",
    "solve_kkt_oracle",
]


# ---------------------------------------------------------------------------
# kernels: the concave integrand and the inverse of its derivative
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaborKernel:
    d: int = 1

    def g(self, s):
        return G(s, self.d)

    def gprime_inv(self, y):
        """Solve e^{-(d! u)^{1/d}} = y for u, clamped to 0 when y >= 1."""
        y = np.asarray(y, dtype=float)
        u = np.zeros_like(y)
        low = y < 1.0
        u[low] = (-np.log(y[low])) ** self.d / math.factorial(self.d)
        return u

    def multiplier_scale(self) -> float:
        """G'(0), the largest useful multiplier at t = 1."""
        return 1.0


@dataclass(frozen=True)
class WaveletKernel:
    beta: float = 1.0

    def g(self, s):
        return G_beta(s, self.beta)

    def gprime_inv(self, y):
        """Solve (2 beta / 4 pi)(1 + u/4 pi)^{-(2 beta + 1)} = y, clamped."""
        y = np.asarray(y, dtype=float)
        h = y * (4.0 * math.pi) / (2.0 * self.beta)
        u = np.zeros_like(y)
        low = h < 1.0
        u[low] = 4.0 * math.pi * (h[low] ** (-1.0 / (2.0 * self.beta + 1.0)) - 1.0)
        return u

    def multiplier_scale(self) -> float:
        return 2.0 * self.beta / (4.0 * math.pi)


def kernel_for(c: ConstraintSet):
    return GaborKernel(c.d) if c.transform == "gabor" else WaveletKernel(c.beta)


# ---------------------------------------------------------------------------
# sampled functions (quadrature grids that resolve t -> 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledFunction:
    """Function samples with quadrature weights on (0, upper)."""

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def integral(self, f=None) -> float:
        vals = self.values if f is None else f(self.values)
        return float(np.sum(self.weights * vals))


def geometric_grid():
    """Gauss-Legendre nodes/weights on geometric panels of (1e-13, 1).

    2500 panels of 4 nodes shrink geometrically toward t = 0, where
    t^{p-1} u(t) can concentrate for p near 1; scaled by ``upper`` they
    cover (0, upper) but for the sliver (0, upper * 1e-13), which is
    negligible for every integrand used here.
    """
    edges = np.geomspace(1e-13, 1.0, 2501)
    x, w = np.polynomial.legendre.leggauss(4)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = (lo + half)[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


# ---------------------------------------------------------------------------
# the constraint
# ---------------------------------------------------------------------------

def _support_end(u: Callable, A: float) -> float:
    if math.isfinite(A):
        return A
    t = 1.0
    while u(np.array([t]))[0] > 0.0:
        t *= 2.0
        if t > 1e9:
            raise InvalidInputError("u does not vanish; the moment diverges for A = inf")
    return t


def _at(u: Callable, t: float) -> float:
    return float(np.asarray(u(np.atleast_1d(t)))[0])


def constraint_moment(u, p: float, A: float, *, breaks=()) -> float:
    """Left side of the constraint, p * int_0^A t^{p-1} u(t) dt."""
    if isinstance(u, SampledFunction):
        return float(np.sum(u.weights * p * u.nodes ** (p - 1.0) * u.values))
    upper = _support_end(u, A)
    pts = [b for b in breaks if 0.0 < b < upper]
    val, _ = quad(lambda t: p * t ** (p - 1.0) * _at(u, t), 0.0, upper,
                  points=pts or None, epsabs=0.0, epsrel=1e-13, limit=300)
    return val


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationalSolution:
    """A maximizer of I over the constraint class.

    ``u`` evaluates the solution on (0, A); closed-form solutions carry the
    peak level ``lam``; oracle solutions also carry their discretization in
    ``samples`` and the stationarity multiplier.
    """

    u: Callable
    lam: float | None
    objective_value: float
    constraint_value: float
    regime: str
    multiplier: float | None = None
    samples: SampledFunction | None = None


def solve_closed_form(c: ConstraintSet) -> VariationalSolution:
    """The unique maximizer: u = mu of the extremal weight of c.

    That is the constant B/A (p = 1), the Gaussian-type distribution, or the
    same capped at A.  The objective and constraint values are quadratures
    of mu (``distribution_bound`` and ``constraint_moment``) rather than
    read off the bound formulas, so the two can be compared.
    """
    if c.transform == "gabor":
        report, w = gabor_bound(c), extremal_weight_gabor(c)
    else:
        report, w = wavelet_bound(c), extremal_weight_wavelet(c)
    obj = distribution_bound(w, kernel_for(c).g)
    mom = constraint_moment(w.mu, c.p, c.A, breaks=(w.ess_sup(),))
    return VariationalSolution(w.mu, report.lam, obj, mom, report.regime)


def solve_kkt_oracle(c: ConstraintSet) -> VariationalSolution:
    """Independent maximizer: invert the stationarity relation and bisect on
    the multiplier until the sampled constraint moment equals B^p.

    No closed-form peak level or regime formula enters: the multiplier
    bracket is expanded from the kernel's own scale, and all integrals are
    quadratures of the sampled inverse.  p = 1 is not handled (the objective
    is linear there and stationarity degenerates).
    """
    if c.p == 1:
        raise RegimeError("the multiplier oracle requires p > 1")
    kern = kernel_for(c)
    p, A = c.p, c.A
    target = c.B ** p

    def t_zero(cm: float) -> float:
        # largest t with a nonzero inverse: kern.gprime_inv vanishes beyond it
        return (kern.multiplier_scale() / cm) ** (1.0 / (p - 1.0))

    # one unit grid per solve, scaled to (0, upper) as t = upper * T: a
    # bisection moment is then upper^p sum p W T^{p-1} u, one inverse and one dot
    T, W = geometric_grid()
    Tp = T ** (p - 1.0)
    pWTp = p * W * Tp

    def upper_end(cm: float) -> float:
        return min(A, t_zero(cm))

    def moment(cm: float) -> float:
        upper = upper_end(cm)
        scale = upper ** (p - 1.0)
        return upper * scale * float(pWTp @ kern.gprime_inv(cm * scale * Tp))

    # moment(cm) is strictly decreasing; expand to a sign-changing bracket
    scale = kern.multiplier_scale() * (A if math.isfinite(A) else 1.0) ** (1.0 - p)
    lo = hi = scale
    while moment(lo) <= target:
        lo /= 4.0
        if lo < scale * 1e-60:
            raise RegimeError("multiplier bracket expansion failed (low side)")
    while moment(hi) >= target:
        hi *= 4.0
        if hi > scale * 1e60:
            raise RegimeError("multiplier bracket expansion failed (high side)")

    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if moment(mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 4e-16:
            break
    cm = math.sqrt(lo * hi)
    upper = upper_end(cm)
    nodes = upper * T
    s = SampledFunction(nodes, kern.gprime_inv(cm * nodes ** (p - 1.0)), upper * W)
    mom = constraint_moment(s, p, A)
    obj = s.integral(kern.g)
    lam = t_zero(cm)
    regime = "truncated" if (math.isfinite(A) and lam > A) else "gaussian"

    def u(t):
        t = np.asarray(t, dtype=float)
        return kern.gprime_inv(cm * t ** (p - 1.0))

    return VariationalSolution(u, lam, obj, mom, regime, multiplier=cm, samples=s)
