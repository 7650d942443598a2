"""Sharp operator-norm bounds and the regime classification.

Three extremal families compete: a ball indicator (p = 1), a Gaussian
(subcritical) and a truncated Gaussian (supercritical).  The classifier
compares (B/A)^p against kappa^d (time-frequency) or 4 pi sigma (wavelet);
ties are classified as gaussian, where the two formulas coincide.

Every bound is a closed form in numpy and ``math`` alone; this module loads
no scipy.  The concentration ceilings G and G_beta are elementary: G is a
Poisson sum for integer d, with a series for small volumes.  In the
time-frequency supercritical regime the level of the truncated Gaussian
solves a polynomial equation in x = p log(lam/A), for every d.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import ConstraintSet, expm1_poly, series_length
from .core import quad  # noqa: F401  the benchmark's tracer counts calls through bounds.quad
from .errors import InvalidInputError, RegimeError

__all__ = ["G", "G_beta", "BoundReport", "gabor_bound", "wavelet_bound", "lambda_root"]

# d! stays in float range up to d = 170
MAX_DIM = 170


def _p_series(s, x, d: int, exp):
    """P(d, x) for x < d: e^{-x} sum_{i >= d} x^i / i!, factored as
    s e^{-x} sum_{j >= 0} d! x^j / (d + j)! with s = x^d / d! (Horner).

    Every term is positive and s enters exactly, so a small volume keeps
    its relative precision.
    """
    return s * exp(-x) * _series_sum(x, d)


def _series_sum(x, d: int):
    """sum_{j >= 0} d! x^j / (d + j)! for x < d, by Horner."""
    acc = 0.0
    for i in range(d + series_length(d), d, -1):
        acc = x / i * (1.0 + acc)
    return 1.0 + acc


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


def _times_power(b: float, base: float, x: float) -> float:
    """b base^x: the plain product where base^x is well inside the normal
    doubles, else one exp of the summed logs (inf past the float range)."""
    log_power = x * math.log(base)
    if abs(log_power) < 708.0:
        return b * base ** x
    return _exp_or_inf(math.log(b) + log_power)


def _log_exp_poly(n: int, y: float) -> float:
    """log e_n(e^y), where e_n(x) = sum_{i <= n} x^i / i!, for any real y.

    For x <= 1 through log1p, which keeps small x exact; for x > 1 from the
    top term, log(x^n / n!) + log sum_k n!/(n-k)! x^{-k}.  That sum is at
    most n + 1 for x >= n + 1 but near e^x n! / x^n below; where it
    overflows, e_n(x) = e^x (1 - P(n + 1, x)) with P(n + 1, x) < 0.6 from
    its positive series.
    """
    if y <= 0.0:
        return math.log1p(expm1_poly(n, math.exp(y)))
    z = math.exp(-y)
    tail = 1.0
    for i in range(1, n + 1):
        tail = 1.0 + i * z * tail
    if tail == math.inf:
        x = math.exp(y)
        log_p = (n + 1) * y - math.lgamma(n + 2) - x + math.log(_series_sum(x, n + 1))
        return x + math.log1p(-math.exp(log_p))
    return n * y - math.lgamma(n + 1) + math.log(tail)


def _p_log(d: int, z: float, log_z: float) -> float:
    """P(d, z) for any d >= 1, given z and log z.

    For z < d the series s e^{-z} sum_j d! z^j / (d + j)! with s e^{-z} =
    z^d / d! e^{-z} taken in logs; for z >= d, 1 - e^{-z} e_{d-1}(z) with
    e^{-z} e_{d-1}(z) < 1/2 from ``_log_exp_poly``, so neither form cancels.
    G's d <= 170 array path keeps ``_p_series`` and ``_p_poisson``.
    """
    if z < d:
        return math.exp(d * log_z - math.lgamma(d + 1) - z) * _series_sum(z, d)
    return -math.expm1(_log_exp_poly(d - 1, log_z) - z)


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
    of peak lam = B kappa^{-d/p}; where lam overflows or the bound falls
    below the normal doubles (large d), InvalidInputError is raised.
    Supercritical: the Gaussian capped at A, with peak lam = A e^{x/p} where
    e_d(x) = (B/A)^p / kappa^d; the bound int_0^A G(u_lam) dt integrates to
    A [1 - e^{-kappa x} / p * sum_{j<d} kappa^j e_j(x)].  Where the bracket
    falls below the normal doubles (large d), InvalidInputError is raised.
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
        lam, bound = _times_power(B, kappa, -d / p), _times_power(B, kappa, d * kappa)
        if lam == math.inf or bound < sys.float_info.min:
            raise InvalidInputError(f"at d = {d} the peak level overflows or the bound "
                                    "is below the smallest normal double")
        return BoundReport("gaussian", bound, lam, ratio, c)

    # beyond x = e^700, lam is inf and the bracket below is 1 in double
    # precision even for kappa near machine epsilon: the cap changes nothing
    y = min(_saturation_root(d, log_ratio), 700.0)
    x = math.exp(y)
    lam = A * _exp_or_inf(x / p)
    # with 1/p = 1 - kappa, regrouping sum_{j<d} kappa^j e_j(x) by powers of x
    # gives the bracket P(d, kappa x) + kappa^d e^{-kappa x} e_{d-1}(x): two
    # positive terms, so the bound keeps its relative precision at every d;
    # G <= 1 bounds it by A, which their rounded sum can pass by an ulp
    z, log_kappa = kappa * x, math.log(kappa)
    bracket = min(1.0, _p_log(d, z, log_kappa + y)
                  + math.exp(d * log_kappa - z + _log_exp_poly(d - 1, y)))
    if bracket < sys.float_info.min:
        raise InvalidInputError(f"the bound / A at d = {d} is below the smallest normal double")
    return BoundReport("truncated", A * bracket, lam, ratio, c)


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
    if not sigma > 0:
        raise InvalidInputError("beta is too large: 2 beta p overflows")
    fourpisigma = 4.0 * math.pi * sigma
    ratio = c.b_over_a_pow_p / fourpisigma
    if ratio <= 1.0:
        lam = B * fourpisigma ** (-1.0 / p)
        bound = 2.0 * beta / (4.0 * math.pi) ** (1.0 / p) * sigma ** c.kappa * B
        return BoundReport("gaussian", bound, lam, ratio, c)

    # p sigma / alpha = 1 + sigma, so lam = A [(1 + sigma) / q]^{-1/alpha} with
    # q = 1 + (B/A)^p / (4 pi) > 1 + sigma; once (B/A)^p overflows,
    # log q = p log(B/A) - log(4 pi) to double precision
    r = c.b_over_a_pow_p
    log_q = (math.log1p(r / (4.0 * math.pi)) if math.isfinite(r)
             else p * (math.log(B) - math.log(A)) - math.log(4.0 * math.pi))
    log_base = math.log1p(sigma) - log_q
    lam = A * _exp_or_inf(-log_base / alpha)
    # the correction p^{2 beta} (sigma/alpha)^{2 beta + 1} q^{-2 beta}, that is
    # (sigma/alpha) [(1 + sigma) / q]^{2 beta}, as one exp of its summed logs:
    # its factors overflow at large beta, and the logs of p and sigma/alpha cancel
    bound = -A * math.expm1(2.0 * beta * log_base + math.log(sigma / alpha))
    return BoundReport("truncated", bound, lam, ratio, c)
