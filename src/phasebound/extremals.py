"""Extremal weights and signals: the objects attaining the sharp bounds.

Weights are radial about an arbitrary center and saturate both constraints;
signals are the matching shifted-modulated Gaussian window (time-frequency)
or translated-dilated analyzing wavelet (half-plane).
"""
from __future__ import annotations

import math

import numpy as np

from .bounds import gabor_bound, wavelet_bound
from .core import RadialProfile
from .errors import InvalidInputError
from .gabor import Signal
from .scalar import ConstraintSet, Disc
from .wavelet import DiscProfile, HardySignal, bergman_basis, cauchy_norm_const

__all__ = [
    "extremal_weight_gabor",
    "extremal_weight_wavelet",
    "extremal_signal",
    "extremal_signal_wavelet",
    "wavelet_disc_coefficients",
]


def extremal_weight_gabor(c: ConstraintSet, center=(0.0, 0.0)) -> RadialProfile:
    """The weight attaining the sharp time-frequency bound for c, about
    center: ``BoundReport.extremal``'s ball, Gaussian lam e^{-pi r^2/(p-1)}
    or that Gaussian capped at A.  The global phase is fixed to zero."""
    return RadialProfile(**gabor_bound(c).extremal(), center=center)


def extremal_weight_wavelet(c: ConstraintSet, center: complex = 1j) -> DiscProfile:
    """The symbol attaining the sharp wavelet bound, radial in the disc
    model about center: ``BoundReport.extremal``'s hyperbolic disc, power
    lam (1 - x)^{1/alpha} or that power capped at A.  The exponent 1/alpha
    is forced by the maximizer's distribution function 4 pi ((t/lam)^{-alpha} - 1)."""
    return DiscProfile(**wavelet_bound(c).extremal(), center=center)


def extremal_signal(x0: float, omega0: float, phase: complex = 1.0) -> Signal:
    """Unit-norm shifted-modulated Gaussian window, |phase| = 1 required."""
    return Signal.gaussian_pulse(x0, omega0, phase)


def extremal_signal_wavelet(x0: float, y0: float, beta: float,
                            phase: complex | None = None) -> HardySignal:
    """Unit-norm translated-dilated analyzing wavelet centered at x0 + i y0.

    f(t) = (c / sqrt(y0)) psi((t - x0)/y0) with |c|^2 = 2 pi / beta, which
    makes ||f|| = 1; in frequency, f-hat = c sqrt(y0) e^{-i omega x0}
    psi-hat(y0 omega).
    """
    Disc(beta).check_spectral()
    if not y0 > 0:
        raise InvalidInputError("the center must satisfy y0 > 0")
    c = math.sqrt(2.0 * math.pi / beta) if phase is None else complex(phase)
    if abs(abs(c) - math.sqrt(2.0 * math.pi / beta)) > 1e-10:
        raise InvalidInputError("|phase|^2 must equal 2 pi / beta")
    cb = cauchy_norm_const(beta)
    return HardySignal.from_function(lambda om: c * math.sqrt(y0) * np.exp(-1j * om * x0)
                                     * (y0 * om) ** beta * np.exp(-y0 * om) / cb)


def wavelet_disc_coefficients(x0: float, y0: float, beta: float, K: int,
                              phase: complex | None = None) -> np.ndarray:
    """Disc-basis coefficients of the extremal wavelet signal at x0 + i y0.

    <f, e_k> = c conj(W e_k(x0, y0)) by the reproducing property; the
    coefficient mass converges to 1 geometrically in |w(z0)|^2.
    """
    Disc(beta).check_spectral()
    c = math.sqrt(2.0 * math.pi / beta) if phase is None else complex(phase)
    basis = bergman_basis(K, beta, np.array([x0]), np.array([y0]))[:, 0]
    return c * np.conj(basis)
