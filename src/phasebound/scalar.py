"""Constraint data and the scalar numerics shared across modules.

This module imports the standard library alone, and so does ``bounds``:
a closed-form bound evaluation loads no numpy.  The array modules import
their shared helpers from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError, UnattainedBoundError

__all__ = ["ConstraintSet"]


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


def _check_exponent(p: float):
    """The paper's exponent domain 1 <= p < inf; NaN is rejected too."""
    if not 1 <= p < math.inf:
        raise InvalidInputError(f"p must satisfy 1 <= p < inf, got {p}")


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
        _check_exponent(self.p)
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
            if not 0 < self.beta < math.inf:
                raise InvalidInputError("wavelet constraints need 0 < beta < inf")

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
