"""Sharp operator-norm bounds and the regime classification.

Three extremal families compete: a ball indicator (p = 1), a Gaussian
(subcritical) and a truncated Gaussian (supercritical).  The classifier
compares (B/A)^p against kappa^d (time-frequency) or 4 pi sigma (wavelet);
ties are classified as gaussian, where the two formulas coincide.

Every bound is a closed form in numpy and ``math`` alone; this module loads
no scipy.  The concentration ceilings G and G_beta are elementary: G is a
Poisson sum for integer d, with a series for small volumes.  In the
time-frequency supercritical regime the level of the truncated Gaussian
solves a polynomial equation in x = p log(lam/A), for every d.  The
quadratures of the moment and of the bound integral (``_moment_gabor``,
``_truncated_gabor_bound_quad``) stay as independent oracles for ``verify``
and the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ConstraintSet, expm1_poly, quad
from .errors import InvalidInputError, RegimeError

__all__ = ["G", "G_beta", "BoundReport", "gabor_bound", "wavelet_bound", "lambda_root"]

# d! stays in float range up to d = 170
MAX_DIM = 170


@lru_cache(maxsize=None)
def _series_length(d: int) -> int:
    """Terms of sum_{j >= 1} d! x^j / (d + j)! that ``_p_series`` keeps.

    At x < d the j-th term is below t_j = prod_{i <= j} d / (d + i), and the
    terms after it add at most t_j d / (j + 1); stop once that is below
    2^-53 of the sum, which is at least 1.
    """
    n, term = 0, 1.0
    while term * d > 2.0 ** -53 * (n + 1):
        n += 1
        term *= d / (d + n)
    return n


def _p_series(s, x, d: int, exp):
    """P(d, x) for x < d: e^{-x} sum_{i >= d} x^i / i!, factored as
    s e^{-x} sum_{j >= 0} d! x^j / (d + j)! with s = x^d / d! (Horner).

    Every term is positive and s enters exactly, so a small volume keeps
    its relative precision.
    """
    acc = 0.0
    for i in range(d + _series_length(d), d, -1):
        acc = x / i * (1.0 + acc)
    return s * exp(-x) * (1.0 + acc)


def _p_poisson(x, x_capped, d: int, exp):
    """P(d, x) for x >= d: 1 - e^{-x} e_{d-1}(x), the Poisson sum.

    e^{-x} e_{d-1}(x) is below 1/2 for x >= d, so the subtraction loses
    nothing.  e_{d-1} takes x capped at 709, where it cannot overflow;
    beyond the cap e^{-x} e_{d-1}(709) < 1e-100 for every d <= 170, so the
    result is 1.
    """
    return 1.0 - exp(-x) * (1.0 + expm1_poly(d - 1, x_capped))


def G(s, d: int = 1):
    """Concentration ceiling for phase-space sets of volume s in R^{2d}.

    G(s) = P(d, x), the regularized lower incomplete gamma at
    x = (d! s)^{1/d}: strictly increasing and concave, with G(s) <= s and
    limit 1 (G(inf) = 1).  It is evaluated in closed form: -expm1(-s) for
    d = 1; otherwise the series e^{-x} sum_{i >= d} x^i / i! for x < d,
    which keeps small volumes to full relative precision, and
    1 - e^{-x} e_{d-1}(x) for x >= d.  s may be a scalar (float result) or
    an array; d is an integer in [1, 170], where d! stays in float range.
    """
    if not isinstance(d, (int, np.integer)) or not 1 <= d <= MAX_DIM:
        raise InvalidInputError(f"dimension must be an integer in [1, {MAX_DIM}], got {d!r}")
    d = int(d)
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        s = float(s)
        if not s >= 0.0:
            raise InvalidInputError("G is defined for s >= 0 (NaN is not a volume)")
        if d == 1:
            return -math.expm1(-s)
        x = (math.factorial(d) * s) ** (1.0 / d)
        if x < d:
            return _p_series(s, x, d, math.exp)
        return _p_poisson(x, min(x, 709.0), d, math.exp)
    if not (s >= 0.0).all():
        raise InvalidInputError("G is defined for s >= 0 (NaN is not a volume)")
    if d == 1:
        return -np.expm1(-s)
    with np.errstate(over="ignore"):
        # d! s overflows only for s near float max, where x = inf and G = 1
        x = (math.factorial(d) * s) ** (1.0 / d)
    low = x < d
    out = np.empty_like(x)
    out[low] = _p_series(s[low], x[low], d, np.exp)
    high = x[~low]
    out[~low] = _p_poisson(high, np.minimum(high, 709.0), d, np.exp)
    return out


def G_beta(s, beta: float):
    """Wavelet analogue: G_beta(s) = 1 - (1 + s/(4 pi))^{-2 beta}."""
    s = np.asarray(s, dtype=float)
    if not (s >= 0.0).all():
        raise InvalidInputError("G_beta is defined for s >= 0 (NaN is not a measure)")
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    out = 1.0 - (1.0 + s / (4.0 * math.pi)) ** (-2.0 * beta)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BoundReport:
    """Result of a sharp-bound evaluation.

    regime is 'ball', 'gaussian' or 'truncated'; lam is the extremal-profile
    peak level (None in the ball regime); critical_ratio is (B/A)^p divided
    by the regime threshold, with inf at p = 1.
    """

    regime: str
    bound: float
    lam: float | None
    critical_ratio: float
    inputs: ConstraintSet

    def as_dict(self) -> dict:
        return {
            "transform": self.inputs.transform,
            "regime": self.regime,
            "bound": self.bound,
            "lambda": self.lam,
            "critical_ratio": self.critical_ratio,
        }


# ---------------------------------------------------------------------------
# time-frequency (Gabor) bounds
# ---------------------------------------------------------------------------

def _exp_or_inf(x: float) -> float:
    # extreme B/A ratios push the extremal peak level out of float range;
    # the bound formulas stay finite, so report the level as inf
    return math.exp(x) if x < 709.0 else math.inf


def _log_exp_poly(n: int, y: float) -> float:
    """log e_n(e^y), where e_n(x) = sum_{i <= n} x^i / i!, for any real y.

    For x <= 1 through log1p, which keeps small x exact; for x > 1 from the
    top term, log(x^n / n!) + log sum_k n!/(n-k)! x^{-k}, which cannot
    overflow.
    """
    if y <= 0.0:
        return math.log1p(expm1_poly(n, math.exp(y)))
    z = math.exp(-y)
    tail = 1.0
    for i in range(1, n + 1):
        tail = 1.0 + i * z * tail
    return n * y - math.lgamma(n + 1) + math.log(tail)


def _saturation_root(d: int, log_ratio: float) -> float:
    """log x for the positive root x of e_d(x) = critical ratio.

    The saturation equation p int_0^A t^{p-1} u_lam dt = B^p integrates to
    e_d(x) = (B/A)^p / kappa^d with x = p log(lam/A).  Newton runs on
    g(y) = log e_d(e^y) - log_ratio, which is increasing and convex in
    y = log x.  It starts from the smaller of two upper bounds on the root,
    e_d(x) >= 1 + x and e_d(x) >= x^d / d!, so the iterates decrease
    monotonically; for d = 1 the start x = ratio - 1 is the root itself.
    """
    y = (log_ratio + math.lgamma(d + 1)) / d
    if log_ratio < 700.0:
        y = min(y, math.log(math.expm1(log_ratio)))
    for _ in range(100):
        log_e = _log_exp_poly(d, y)
        # g'(y) = x e_{d-1}(x) / e_d(x)
        step = (log_e - log_ratio) / math.exp(y + _log_exp_poly(d - 1, y) - log_e)
        y -= step
        # the iterates only decrease; a step that does not is rounding noise
        if step <= 4e-16 * max(1.0, abs(y)):
            break
    return y


def _u_gabor(t, lam: float, p: float, d: int):
    """Distribution function of the (possibly truncated) Gaussian profile."""
    t = np.asarray(t, dtype=float)
    return ((p - 1.0) * np.maximum(np.log(lam / t), 0.0)) ** d / math.factorial(d)


def _moment_gabor(lam: float, c: ConstraintSet) -> float:
    """h(lam) = p * int_0^A t^{p-1} u_lam(t) dt by adaptive quadrature (oracle)."""
    p, d = c.p, c.d
    upper = min(c.A, lam)
    val, _ = quad(lambda t: p * t ** (p - 1.0) * _u_gabor(t, lam, p, d),
                  0.0, upper, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def _truncated_gabor_bound_quad(c: ConstraintSet, lam: float) -> float:
    """int_0^A G(u_lam(t)) dt by adaptive quadrature (oracle)."""
    val, _ = quad(lambda t: G(_u_gabor(t, lam, c.p, c.d), c.d),
                  0.0, c.A, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def lambda_root(c: ConstraintSet) -> float:
    """Peak level of the supercritical extremal, from the saturation equation.

    lam = A exp(x / p), where x is the root of the polynomial equation
    e_d(x) = (B/A)^p / kappa^d that ``gabor_bound`` solves to double
    precision; inf when lam leaves float range.
    """
    if c.transform != "gabor":
        raise RegimeError("lambda_root handles the time-frequency case")
    report = gabor_bound(c)
    if report.regime != "truncated":
        raise RegimeError("lambda_root requires the supercritical regime")
    return report.lam


def gabor_bound(c: ConstraintSet) -> BoundReport:
    """Sharp bound for the norm of a time-frequency localization operator.

    p = 1: A G(B/A), attained by a ball indicator.
    Subcritical ((B/A)^p <= kappa^d): kappa^{d kappa} B, attained by a Gaussian
    of peak lam = B kappa^{-d/p}.
    Supercritical: the Gaussian capped at A, with peak lam = A e^{x/p} where
    e_d(x) = (B/A)^p / kappa^d; the bound int_0^A G(u_lam) dt integrates to
    A [1 - e^{-kappa x} / p * sum_{j<d} kappa^j e_j(x)].
    """
    if c.transform != "gabor":
        raise InvalidInputError("constraint set is not tagged gabor")
    p, A, B, d = c.p, c.A, c.B, c.d

    if p == 1:
        return BoundReport("ball", A * G(B / A, d), None, math.inf, c)

    # log of the critical ratio (B/A)^p / kappa^d, which cannot overflow
    kappa = c.kappa
    log_ratio = (-math.inf if math.isinf(A)
                 else p * (math.log(B) - math.log(A)) - d * math.log(kappa))
    ratio = _exp_or_inf(log_ratio)
    if log_ratio <= 0.0:
        lam = B * kappa ** (-d / p)
        return BoundReport("gaussian", kappa ** (d * kappa) * B, lam, ratio, c)

    # beyond x = e^700, lam is inf and the correction below is 0 in double
    # precision even for kappa near machine epsilon: the cap changes nothing
    y = min(_saturation_root(d, log_ratio), 700.0)
    x = math.exp(y)
    lam = A * _exp_or_inf(x / p)
    # with 1/p = (1 - kappa) and sum_{j<d} kappa^j (1 - kappa) = 1 - kappa^d,
    # the bracket is kappa^d + (1 - kappa) sum_j kappa^j (1 - e^{-kappa x} e_j(x));
    # each term is an expm1, so a bound far below A keeps its relative precision
    terms = sum(kappa ** j * math.expm1(_log_exp_poly(j, y) - kappa * x) for j in range(d))
    bound = A * (kappa ** d - (1.0 - kappa) * terms)
    return BoundReport("truncated", bound, lam, ratio, c)


# ---------------------------------------------------------------------------
# wavelet bounds
# ---------------------------------------------------------------------------

def wavelet_bound(c: ConstraintSet) -> BoundReport:
    """Sharp bound for the norm of a Cauchy-wavelet localization operator.

    Same three regimes with threshold 4 pi sigma; all formulas are closed
    form, including the supercritical peak level lam.
    """
    if c.transform != "wavelet":
        raise InvalidInputError("constraint set is not tagged wavelet")
    p, A, B, beta = c.p, c.A, c.B, c.beta

    if p == 1:
        return BoundReport("ball", A * G_beta(B / A, beta), None, math.inf, c)

    sigma, alpha = c.sigma, c.alpha
    fourpisigma = 4.0 * math.pi * sigma
    ratio = c.b_over_a_pow_p / fourpisigma
    if ratio <= 1.0:
        lam = B * fourpisigma ** (-1.0 / p)
        bound = 2.0 * beta / (4.0 * math.pi) ** (1.0 / p) * sigma ** c.kappa * B
        return BoundReport("gaussian", bound, lam, ratio, c)

    # lam = A [(p sigma / alpha) / q]^{-1/alpha} with q = 1 + (B/A)^p / (4 pi);
    # once (B/A)^p overflows, log q = p log(B/A) - log(4 pi) to double precision
    r = c.b_over_a_pow_p
    log_q = (math.log1p(r / (4.0 * math.pi)) if math.isfinite(r)
             else p * (math.log(B) - math.log(A)) - math.log(4.0 * math.pi))
    lam = A * _exp_or_inf((log_q - math.log(p * sigma / alpha)) / alpha)
    bound = A * (1.0 - p ** (2.0 * beta) * (sigma / alpha) ** (2.0 * beta + 1.0)
                 * (1.0 + r / (4.0 * math.pi)) ** (-2.0 * beta))
    return BoundReport("truncated", bound, lam, ratio, c)
