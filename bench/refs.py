"""Reference values computed with mpmath, apart from phasebound.

Every value here comes from the paper's characterisation of the sharp
bound: maximise int_0^A G(u(t)) dt over nonincreasing u >= 0 with
p int_0^A t^{p-1} u(t) dt = B^p.  Stationarity G'(u(t)) = c t^{p-1} gives
the maximiser u_lam, the saturation equation fixes lam, and the bound is
the integral of G(u_lam).  Nothing in this module imports phasebound.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 30


def _partial_exp(x, n):
    """e_n(x) = sum_{j <= n} x^j / j!."""
    term = total = mp.mpf(1)
    for j in range(1, n + 1):
        term = term * x / j
        total += term
    return total


def _P(d, x):
    """Regularised lower incomplete gamma P(d, x) for integer d."""
    return 1 - mp.exp(-x) * _partial_exp(x, d - 1)


def G(s, d):
    """Concentration ceiling on R^{2d}: P(d, (d! s)^{1/d})."""
    return _P(d, (mp.factorial(d) * s) ** (mp.mpf(1) / d))


def G_beta(s, beta):
    return 1 - (1 + s / (4 * mp.pi)) ** (-2 * beta)


def gabor(p, A, B, d):
    """(regime, bound) for the time-frequency operator, 30 digits.

    With u_lam(t) = ((p-1) log(lam/t))^d / d! and v0 = log(lam/A), the
    saturation moment is lam^p kappa^d Q(d+1, p v0) and the bound is
    A int_0^inf P(d, (p-1)(w + v0)) e^{-w} dw (t = lam e^{-v}, v = w + v0).
    Working in v0 keeps lam out of float range issues altogether.
    """
    with mp.workdps(DPS):
        p, B = mp.mpf(p), mp.mpf(B)
        A = mp.inf if math.isinf(A) else mp.mpf(A)
        if p == 1:
            return "ball", float(A * G(B / A, d))
        kappa = (p - 1) / p

        def integral(v0):
            return mp.quad(lambda w: _P(d, (p - 1) * (w + v0)) * mp.exp(-w), [0, mp.inf])

        if A == mp.inf or (B / A) ** p <= kappa ** d:
            lam = B * kappa ** (-mp.mpf(d) / p)
            return "gaussian", float(lam * integral(0))

        def excess(v0):
            # Q(d+1, y) = e^{-y} e_d(y) for integer d
            log_q = -p * v0 + mp.log(_partial_exp(p * v0, d))
            return p * mp.log(A) + p * v0 + d * mp.log(kappa) + log_q - p * mp.log(B)

        hi = mp.mpf(1)
        while excess(hi) < 0:
            hi *= 2
        v0 = mp.findroot(excess, (hi / 2 if hi > 1 else mp.mpf(0), hi), solver="anderson")
        return "truncated", float(A * integral(v0))


def wavelet(p, A, B, beta):
    """(regime, bound) for the Cauchy-wavelet operator, 30 digits.

    u_lam(t) = 4 pi ((t/lam)^{-alpha} - 1) with alpha = (p-1)/(2 beta + 1);
    the moment and the bound integrals are elementary.
    """
    with mp.workdps(DPS):
        p, B, beta = mp.mpf(p), mp.mpf(B), mp.mpf(beta)
        A = mp.inf if math.isinf(A) else mp.mpf(A)
        if p == 1:
            return "ball", float(A * G_beta(B / A, beta))
        alpha = (p - 1) / (2 * beta + 1)
        e = 2 * beta * alpha
        lam = (B ** p * (p - alpha) / (4 * mp.pi * alpha)) ** (1 / p)
        if A == mp.inf or lam <= A:
            return "gaussian", float(lam * e / (1 + e))
        lam_alpha = (B ** p / (4 * mp.pi) + A ** p) * (p - alpha) / (p * A ** (p - alpha))
        return "truncated", float(A - A ** (1 + e) / ((1 + e) * lam_alpha ** (2 * beta)))


def gaussian_cap(p, B, d):
    """kappa^{d kappa} B, the bound without a sup constraint."""
    kappa = (p - 1.0) / p
    return kappa ** (d * kappa) * B


def wavelet_gaussian_cap(p, B, beta):
    """The wavelet analogue: 2 beta (4 pi)^{-1/p} sigma^kappa B."""
    kappa = (p - 1.0) / p
    sigma = (p - 1.0) / (2.0 * beta * p + 1.0)
    return 2.0 * beta / (4.0 * math.pi) ** (1.0 / p) * sigma ** kappa * B


def distribution_bound(values, masses, ceiling):
    """int_0^inf G(mu(t)) dt for a step function, from its sorted cells.

    mu is constant between consecutive sorted values, so the integral is
    the exact sum of G(cumulative mass) times the value drops.
    """
    order = np.argsort(values)[::-1]
    v = values[order]
    cum = np.cumsum(masses[order])
    drops = v - np.concatenate([v[1:], [0.0]])
    return float(np.sum(ceiling(cum) * drops))
