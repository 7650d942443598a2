"""Gaussian-window STFT, Hermite phase-space basis, and the operator layer.

The spectral law of a setting, ``scalar.Plane(1)`` or ``scalar.Disc(beta)``,
supplies the basis at quadrature nodes (|phi_0|, step and ratios of
``basis_recurrence``).  ``assemble(F, K, law)`` sums any grid field, or a
plane profile by a polar rule, against it by one Gram kernel;
``spectrum(F, K, law)`` averages a profile against the law in closed form
(Gamma(k+1) densities in s = pi r^2 on the plane) or diagonalizes a grid
field's assembly.  The STFT of Hermite coefficients or a Gaussian pulse is
a closed form; time quadrature serves sampled signals and is their oracle.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .core import (GridField, MeasureProfile, RadialProfile, WeightField, _legendre_rule,
                   distribution_bound, gauss_panels, integrate, lp_norm, positive_int)
from .errors import AliasingError, BasisTruncationError, InvalidInputError, RegimeError
from .scalar import Disc, Plane

__all__ = [
    "Signal",
    "OperatorSpectrum",
    "gaussian_window",
    "hermite_function",
    "stft",
    "hermite_phase_basis",
    "basis_recurrence",
    "gram_operator",
    "mirror_fold",
    "assemble",
    "spectrum",
    "assemble_operator",
    "radial_eigenvalues",
    "radial_eigenvalues_quad",
    "operator_norm",
    "expectation",
    "concentration",
    "lieb_quotient",
]


# Hermitian eigenvalues; the benchmark's tracer wraps this name
eigh = np.linalg.eigvalsh


DEFAULT_TIME_HALF_SPAN = 8.0
DEFAULT_TIME_SAMPLES = 2048


def gaussian_window(t):
    """The unit-norm window 2^{1/4} e^{-pi t^2}."""
    t = np.asarray(t, dtype=float)
    return 2.0 ** 0.25 * np.exp(-math.pi * t * t)


def hermite_function(k: int, t):
    """k-th Hermite function, orthonormal on R with h_0 the Gaussian window."""
    return _hermite_stack(k + 1, np.asarray(t, dtype=float))[k]


def _hermite_stack(K: int, t: np.ndarray) -> np.ndarray:
    """h_0..h_{K-1} by the stable three-term recurrence, shape (K, len(t))."""
    out = np.empty((K, t.size), dtype=float)
    out[0] = gaussian_window(t)
    if K > 1:
        nu = math.sqrt(2.0 * math.pi)
        out[1] = nu * t * math.sqrt(2.0) * out[0]
        for k in range(1, K - 1):
            out[k + 1] = (nu * t * math.sqrt(2.0 / (k + 1)) * out[k]
                          - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signal:
    """A signal given as uniform time samples, Hermite coefficients, or a
    shifted-modulated Gaussian pulse (x0, omega0, unimodular phase)."""

    times: np.ndarray | None = None
    values: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    pulse: tuple[float, float, complex] | None = None

    @classmethod
    def from_samples(cls, times, values) -> "Signal":
        times = np.asarray(times, dtype=float)
        values = np.ascontiguousarray(values, dtype=complex)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise InvalidInputError("need matching 1-d times/values")
        dt = np.diff(times)
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise InvalidInputError("time grid must be uniform")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("signal samples must be finite")
        return cls(times=times, values=values)

    @classmethod
    def from_hermite(cls, coeffs) -> "Signal":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise InvalidInputError("need a 1-d coefficient vector")
        return cls(coeffs=coeffs)

    @classmethod
    def gaussian_pulse(cls, x0: float, omega0: float, phase: complex = 1.0) -> "Signal":
        if abs(abs(phase) - 1.0) > 1e-12:
            raise InvalidInputError("pulse phase must be unimodular")
        return cls(pulse=(float(x0), float(omega0), complex(phase)))

    # -- representations ---------------------------------------------------
    def time_samples(self):
        """(times, values): a sampled signal's own, any other signal on the
        default time grid of ``stft``."""
        if self.times is not None:
            return self.times, self.values
        t = np.linspace(-DEFAULT_TIME_HALF_SPAN, DEFAULT_TIME_HALF_SPAN, DEFAULT_TIME_SAMPLES)
        if self.pulse is not None:
            x0, w0, c = self.pulse
            vals = c * np.exp(2j * math.pi * t * w0) * gaussian_window(t - x0)
            return t, vals
        H = _hermite_stack(self.coeffs.size, t)
        return t, self.coeffs @ H

    def hermite_coefficients(self, K: int) -> np.ndarray:
        if self.coeffs is not None:
            out = np.zeros(K, dtype=complex)
            out[: min(K, self.coeffs.size)] = self.coeffs[:K]
            return out
        if self.pulse is not None:
            # <pulse, h_k> is the conjugate STFT of h_k at the pulse center
            x0, w0, c = self.pulse
            return c * np.conj(_phase_basis_stack(K, np.array([x0]), np.array([w0]))[:, 0])
        t, v = self.times, self.values
        dt = t[1] - t[0]
        return (_hermite_stack(K, t) @ v) * dt

    def l2_norm(self) -> float:
        if self.coeffs is not None:
            return float(np.linalg.norm(self.coeffs))
        if self.pulse is not None:
            return 1.0
        dt = self.times[1] - self.times[0]
        return float(math.sqrt(np.sum(np.abs(self.values) ** 2) * dt))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def stft(f: Signal, half_width: float = 6.0, n: int = 128) -> WeightField:
    """Short-time Fourier transform with Gaussian window, on a square grid.

    Vf(x, omega) = int e^{-2 pi i y omega} f(y) window(x - y) dy.  Signals
    from ``from_hermite`` and ``gaussian_pulse`` are evaluated in closed
    form: sum_k c_k V h_k along the basis recurrence, and
    c e^{-2 pi i x0 (omega - omega0)} V window(z - z0) for a pulse.  Sampled
    signals take midpoint quadrature in y (geometrically convergent for
    these integrands), which is also the oracle for the closed forms; their
    own time grid must support the requested frequency range, or
    AliasingError is raised.
    """
    ax = WeightField.cell_centers(half_width, n)
    if f.times is not None:
        t, v = f.times, f.values
        dt = t[1] - t[0]
        # window frequency content is dead beyond ~4, so Nyquist must cover hw + 4
        if 1.0 / (2.0 * dt) < half_width + 4.0:
            raise AliasingError(
                f"time step {dt:.4g} cannot resolve frequencies up to {half_width}; "
                f"need at least {int(2 * (half_width + 4) * (t[-1] - t[0]))} samples"
            )
        kernel = np.exp(-2j * math.pi * np.outer(t, ax))   # (n_t, n_omega)
        window = gaussian_window(ax[:, None] - t[None, :])  # (n_x, n_t)
        values = (window * v[None, :] * dt) @ kernel
    elif f.pulse is not None:
        x0, w0, c = f.pulse
        dx = (ax - x0)[:, None]
        dw = (ax - w0)[None, :]
        values = c * np.exp(-1j * math.pi * (2.0 * x0 + dx) * dw
                            - 0.5 * math.pi * (dx * dx + dw * dw))
    else:
        X, W = np.meshgrid(ax, ax, indexing="ij")
        values = _phase_basis_stack(f.coeffs.size, X, W, f.coeffs)
    return WeightField(half_width, n, values)


def hermite_phase_basis(k: int, x, omega):
    """Closed-form STFT of the k-th Hermite function.

    V h_k(x, omega) = e^{-i pi x omega} sqrt(pi^k / k!) (x - i omega)^k
    e^{-pi |z|^2 / 2}; its square modulus is the Gamma(k+1) density in the
    area coordinate, which is what diagonalizes radial weights.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise InvalidInputError(f"k must be an integer >= 0, got {k!r}")
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return _phase_basis_stack(k + 1, x.ravel(), omega.ravel())[k].reshape(x.shape)


def _phase_basis_stack(K: int, x, omega, coeffs=None):
    """V h_0 .. V h_{K-1} at the given points, shape (K,) + x.shape, or
    sum_k coeffs[k] V h_k: the law's basis, with the phase e^{-i pi x omega}."""
    row0, step, ratios = Plane(1).basis(K, x, omega)
    return basis_recurrence(row0 * np.exp(-1j * math.pi * x * omega), step, ratios, coeffs)


# ---------------------------------------------------------------------------
# basis recurrences and the Gram product
# ---------------------------------------------------------------------------

GRAM_BLOCK = 2048  # nodes per block: bounds the stack held at once; 1024-2048 beat 4096
EPS = np.finfo(float).eps


def basis_recurrence(row0, step, ratios, coeffs=None):
    """phi_0 = row0, phi_k = phi_{k-1} step ratios[k-1], elementwise.

    Returns the stack phi_0 .. phi_n (n = len(ratios)), shape
    (n + 1,) + row0.shape, or, given coefficients, sum_k coeffs[k] phi_k
    without holding the stack.
    """
    if coeffs is not None:
        phi = np.asarray(row0, dtype=complex)
        acc = coeffs[0] * phi
        for c, r in zip(coeffs[1:], ratios):
            phi = phi * step * r
            acc += c * phi
        return acc
    out = np.empty((len(ratios) + 1,) + np.shape(row0), dtype=complex)
    out[0] = row0
    for k, r in enumerate(ratios, 1):
        np.multiply(out[k - 1], step, out=out[k])
        out[k] *= r
    return out


def gram_operator(row0, step, ratios, *w) -> np.ndarray:
    """M_jk = sum_i w_i phi_j(z_i) conj(phi_k(z_i)) over quadrature nodes z_i,
    each standing for one, two or four nodes by the weights given: w(z);
    w(z), w(z') with its mirror z'; or w(z), w(z'), w(-z), w(-z').

    All arguments but ``ratios`` are 1-d arrays over the nodes, the weights
    finite, and the basis ``basis_recurrence(row0, step, ratios)``.  A
    factor common to every phi_k cancels, so ``row0`` is |phi_0|.  A
    mirror's basis is conj(phi), and phi_k(-z) = (-1)^k phi_k(z).

    With phi = P + iQ, s = w(z) + w(z') and d = w(z) - w(z') (s = d = w(z)
    alone), real weights give M = sum s (P P^T + Q Q^T) + i (B - B^T), B =
    sum d Q P^T; given -z, s and d of the point-even sums w(z) + w(-z) and
    w(z') + w(-z') give the entries with j + k even, and those of the
    point-odd differences the rest.  The stack is built in node blocks
    with row 0 scaled by sqrt|s|.  The row groups, all rows or the even
    rows, the odd rows and their mixed block, each take a symmetric rank-k
    update V V^T of the block's interleaved real view V by the sign of s
    (the mixed block one product with the odd s / |s|) and one product for
    B (two on the mixed block), skipped where its factor is 0 on the whole
    sign class.  Nodes where s = 0 != d, or whose odd part over |s| or
    1 / |s| could overflow, add that part unscaled.  M is exactly
    Hermitian; complex weights are two real sums, M(Re) + i M(Im).
    """
    K = len(ratios) + 1
    w = [np.asarray(x) for x in w]
    if len(w) not in (1, 2, 4):
        raise InvalidInputError(f"gram_operator takes 1, 2 or 4 weight rows, got {len(w)}")
    if not all(np.all(np.isfinite(x)) for x in w):
        raise InvalidInputError("the weight must be finite at every quadrature node")
    if any(np.iscomplexobj(x) and np.any(x.imag != 0.0) for x in w):
        return (gram_operator(row0, step, ratios, *(x.real for x in w))
                + 1j * gram_operator(row0, step, ratios, *(x.imag for x in w)))

    w = [x.real for x in w]
    if len(w) == 4:   # the point-even sums, then the point-odd differences
        w = [w[0] + w[2], w[1] + w[3], w[0] - w[2], w[1] - w[3]]
    s, d = (w[0], w[0]) if len(w) == 1 else (w[0] + w[1], w[0] - w[1])
    odd = [w[2] + w[3], w[2] - w[3]] if len(w) == 4 else []
    # rows 0::2 and 1::2 hold the even and the odd basis functions
    rows = [slice(0, None, 2), slice(1, None, 2)] if odd else [slice(None)]
    pairs = [(r, r, 0) for r in rows] + [(r, c, 2) for r in rows for c in rows if r != c]
    # the odd part rides on the sqrt|s| rows unless 1 / |s|, or its quotient by |s|, could overflow
    big = np.maximum(np.abs(odd[0]), np.abs(odd[1])) if odd else 0.0
    ride = (big * 2.0 ** -1000 <= np.abs(s)) & (np.abs(s) >= np.finfo(float).tiny)
    real, B = np.zeros((K, K)), np.zeros((K, K))
    for sign, nodes in ((1.0, s > 0.0), (-1.0, s < 0.0),
                        (0.0, ~ride & (big != 0.0) | (s == 0.0) & (d != 0.0))):
        # factors: d, then s and d of the odd part
        if sign:
            abs_s = sign * s[nodes]
            scaled = row0[nodes] * np.sqrt(abs_s)
            f = [d[nodes] / abs_s] + [x[nodes] * (ride[nodes] / abs_s) for x in odd]
        else:
            scaled = row0[nodes]
            f = [d[nodes] * (s[nodes] == 0.0)] + [x[nodes] for x in odd]
        live = [np.any(x != 0.0) for x in f]
        sstep = step[nodes]
        for start in range(0, scaled.size, GRAM_BLOCK):
            sl = slice(start, start + GRAM_BLOCK)
            # columns 2i and 2i + 1 of V are P and Q at node i
            V = basis_recurrence(scaled[sl], sstep[sl], ratios).view(float)
            if sign:
                for r in rows:
                    real[r, r] += sign * (V[r] @ V[r].T)
            if odd and live[1]:
                real[0::2, 1::2] += V[0::2] @ (V[1::2] * np.repeat(f[1][sl], 2)).T
            for r, c, i in pairs:
                if live[i]:
                    B[r, c] += (V[r, 1::2] * f[i][sl]) @ V[c, ::2].T
    if odd:
        real[1::2, 0::2] = real[0::2, 1::2].T
    M = real.astype(complex)
    M.imag = B - B.T
    return M


def mirror_fold(offsets, w):
    """Pair the nodes of a grid that is mirror-symmetric along its first axis.

    offsets are the first-axis node coordinates measured from the mirror
    line, and w holds the weights with that axis first.  Returns (n, wf,
    wf_mirror): the first n rows of nodes are kept, each standing also for
    its mirror row, with ``gram_operator``'s weights, raveled.  A middle
    row is its own mirror and gives half its weight to each.  An axis
    counts as symmetric within a few ulps of its largest coordinate, and
    the kept node's basis then stands for its mirror; otherwise every row
    is kept and wf_mirror is None.
    """
    m = offsets.size
    if np.max(np.abs(offsets + offsets[::-1])) > 8.0 * EPS * np.max(np.abs(offsets)):
        return m, w.ravel(), None
    n = (m + 1) // 2
    wf, wm = w[:n].copy(), w[::-1][:n].copy()
    if m % 2:
        wf[-1] = wm[-1] = 0.5 * w[n - 1]
    return n, wf.ravel(), wm.ravel()


# ---------------------------------------------------------------------------
# the operator layer: assembly and spectra
# ---------------------------------------------------------------------------

def _check_truncation(K: int, half_width: float):
    leak = Plane(1).sums(K, math.pi * half_width ** 2)[0][-1, 0]
    if leak > 1e-6:
        need = math.sqrt(_gamma_q_inverse(K, 1e-6) / math.pi)
        raise BasisTruncationError(
            f"basis size {K} leaks mass {leak:.2e} outside the box; "
            f"use half_width >= {need:.2f}", need)


def _accumulate(K: int, xs, ys, *w, law) -> np.ndarray:
    """Sum w_i phi_j(z_i) conj(phi_k(z_i)) over the basis of ``law`` at z = (xs, ys),
    w the weights at z, or also at its mirror z', or also at -z and -z'."""
    return gram_operator(*law.basis(K, xs, ys), *w)


def assemble(F, K: int, law, *, points_per_cell: int = 2, center=None) -> np.ndarray:
    """K x K matrix of L_F in the basis of ``law``: V h_k for ``Plane(1)``,
    W e_k about ``center`` (i by default) for ``Disc(beta)``.

    Entries are int F phi_j conj(phi_k), summed over quadrature nodes by
    ``gram_operator``, exactly Hermitian for real F.  A weight of the other
    setting is refused, and so is a disc profile (``spectrum`` has its
    closed form); only the disc's basis takes a center.

    Plane grids use tensor Gauss-Legendre points per cell (piecewise-constant
    F).  The grid is symmetric about the origin, so a node of one quadrant
    stands also for (x, -omega), -z and (-x, omega): the kernel sums the
    Hermite parity blocks on a quarter of the nodes, a middle row or column
    giving half its weight to each mirror.  Half-plane grids are summed at
    the nonzero cells' centers with their nu masses, against the basis
    recentered at ``center`` (covariance keeps it orthonormal); when x is
    symmetric about Re(center), the cells at x and 2 Re(center) - x pair up
    (``mirror_fold``): their w conjugate.

    Plane profiles use a polar rule: 8-point Gauss-Legendre on
    max(32, ceil(K/4)) equal radial panels, split also at the profile's
    breakpoints, times a uniform angular grid of max(4K, 16) angles, which
    resolves every harmonic below K exactly.  The rule is laid about
    (|z0|, 0) rather than the center z0, where it folds theta onto -theta
    and the weights are real.  Rotating phase space by phi = arg z0 takes
    Vh_k to e^{-ik phi} Vh_k (the step is x - i omega), so entry (j, k) is
    then multiplied by e^{-i(j-k) phi}, on one triangle and mirrored.
    """
    K, points_per_cell = positive_int(K, "K"), positive_int(points_per_cell, "points_per_cell")
    if not isinstance(F, (GridField, MeasureProfile)):
        raise InvalidInputError(f"cannot assemble from {type(F).__name__}")
    law.check_spectral(F.setting)
    if F.setting is Disc:
        if isinstance(F, MeasureProfile):
            raise RegimeError("a disc profile has no assembly: its spectrum is closed-form")
        center = law.check_center(law.origin if center is None else center)
        _, wf, wm = mirror_fold(F.grid.x - center.real, F.grid.cell_masses() * F.values)
        live = wf != 0.0 if wm is None else (wf != 0.0) | (wm != 0.0)
        ix, iy = np.divmod(np.flatnonzero(live), F.grid.y.size)
        xs, ys = (F.grid.x[ix] - center.real) / center.imag, F.grid.y[iy] / center.imag
        return _accumulate(K, xs, ys, *(x[live] for x in (wf, wm) if x is not None), law=law)
    if center is not None:
        raise InvalidInputError("the plane's basis is centered at the origin: no center")

    if isinstance(F, WeightField):
        _check_truncation(K, F.half_width)
        g, gw = _legendre_rule(points_per_cell)
        half = 0.5 * F.cell
        axis = (F.axis[:, None] + half * g[None, :]).ravel()
        sub_w = np.tile(half * gw, F.n)
        fvals = np.repeat(np.repeat(F.values, points_per_cell, axis=0),
                          points_per_cell, axis=1)
        # weights indexed [x, omega]: the kept rows x, then their mirrors -x
        w = np.outer(sub_w, sub_w) * fvals
        n, *rows = mirror_fold(axis, w)
        if rows[1] is None:   # not symmetric within a few ulps: no node folds
            X, Y = np.meshgrid(axis, axis, indexing="ij")
            return _accumulate(K, X.ravel(), Y.ravel(), rows[0], law=law)
        # each folded on omega: w at (x, omega), (x, -omega), (-x, omega),
        # (-x, -omega), indexed [omega, x] over the kept quadrant
        w = [q for r in rows for q in mirror_fold(axis, r.reshape(n, -1).T)[1:]]
        nodes_y, nodes_x = np.meshgrid(axis[:n], axis[:n], indexing="ij")
        return _accumulate(K, nodes_x.ravel(), nodes_y.ravel(), w[0], w[1], w[3], w[2], law=law)

    r, rw = _polar_radial_rule(F, K)
    # uniform angles (trapezoid is exact for harmonics below ntheta): theta
    # stands also for -theta, and 0 and pi are their own mirrors
    ntheta = max(4 * K, 16)
    theta = 2.0 * math.pi * np.arange(ntheta // 2 + 1) / ntheta
    share = np.full(theta.size, 2.0 * math.pi / ntheta)
    share[[0, -1]] *= 0.5
    # laid about (|z0|, 0), or about z0 itself on the real axis
    x0, y0 = F.center
    xc = math.hypot(x0, y0) if y0 else x0
    xs = (xc + np.outer(r, np.cos(theta))).ravel()
    ys = np.outer(r, np.sin(theta)).ravel()
    wf = np.outer(rw * r * F(r), share).ravel()
    M = _accumulate(K, xs, ys, wf, wf, law=law)
    if y0:
        # rotated back onto z0 by the phase e^{-i(j-k) arg z0}
        j, k = np.tril_indices(K, -1)
        low = M[j, k] * np.exp(-1j * math.atan2(y0, x0) * (j - k))
        M[j, k], M[k, j] = low, low.conj()
    return M


def assemble_operator(F, K: int, *, points_per_cell: int = 2) -> np.ndarray:
    """Deprecated: ``assemble(F, K, Plane(1), points_per_cell=...)``."""
    return assemble(F, K, Plane(1), points_per_cell=points_per_cell)


def _polar_radial_rule(F: RadialProfile, K: int):
    """Radial nodes and weights of ``assemble``'s polar rule on
    [0, r_max]: r_max leaves out less than 1e-14 of the Gamma(K) mass and
    covers the profile's support."""
    r_max = math.sqrt(_gamma_q_inverse(K, 1e-14) / math.pi)
    breakpoints = []
    if F.kind == "indicator":
        breakpoints = [F.edge]
        r_max = max(r_max, F.edge * 1.05)
    elif F.kind == "truncated":
        breakpoints = [math.sqrt(F.shape * math.log(F.amplitude / F.cap) / math.pi)]
        r_max = max(r_max, math.sqrt(F.shape * 45.0 / math.pi))
    elif F.kind == "family":
        r_max = max(r_max, math.sqrt(F.shape * 45.0 / math.pi))
    elif F.kind == "sampled":
        if F.knots.size > 1024:
            raise InvalidInputError(
                "polar assembly supports at most 1024 knots; "
                "use spectrum for finely sampled profiles")
        breakpoints = list(F.knots)
        r_max = max(r_max, float(F.knots[-1]))

    panels = max(32, -(-K // 4))
    edges = np.unique(np.concatenate([np.linspace(0.0, r_max, panels + 1),
                                      [b for b in breakpoints if b < r_max]]))
    return gauss_panels(edges, 8)


@dataclass(frozen=True)
class OperatorSpectrum:
    """Eigenvalues of L_F on ``basis_size`` basis functions, sorted descending,
    and ``upper``, a proven bound on ||L_F||: a grid field's distribution bound,
    a profile's lambda_0 (attained), inf for a bare matrix.  ``tail_bound`` =
    upper - norm() is not clamped: a negative gap exposes an assembly error."""

    eigenvalues: np.ndarray
    basis_size: int
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.sort(self.eigenvalues)[::-1])

    def norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    @property
    def tail_bound(self) -> float:
        return self.upper - self.norm()


def spectrum_from_matrix(M: np.ndarray) -> OperatorSpectrum:
    M = np.asarray(M)
    if np.max(np.abs(M - M.conj().T)) > 1e-10 * max(1.0, float(np.max(np.abs(M)))):
        raise InvalidInputError("matrix is not Hermitian within 1e-10")
    return OperatorSpectrum(eigh(M), M.shape[0], math.inf)


def spectrum(F, K: int, law, *, points_per_cell: int = 2) -> OperatorSpectrum:
    """Spectrum of L_F in the basis of ``law``: a profile's closed form
    (``MeasureProfile.eigenvalues``, with the plane's oracle
    ``radial_eigenvalues_quad``), or a grid field's ``assemble``, bounded with ``law.g``."""
    if isinstance(F, MeasureProfile):
        eigs = F.eigenvalues(K, law)
        return OperatorSpectrum(eigs, eigs.size, eigs[0])
    spec = spectrum_from_matrix(assemble(F, K, law, points_per_cell=points_per_cell))
    return replace(spec, upper=distribution_bound(F, law.g))


def radial_eigenvalues(rho: RadialProfile, K: int) -> OperatorSpectrum:
    """Deprecated: ``spectrum(rho, K, Plane(1))``."""
    return spectrum(rho, K, Plane(1))


def radial_eigenvalues_quad(rho: RadialProfile, K: int) -> OperatorSpectrum:
    """Oracle for ``spectrum`` of a plane profile: each Gamma(k+1) average of
    rho by the panel rule (``core.integrate``), split at the profile's
    breakpoints in s."""
    K = rho.check_spectrum(K, Plane(1))
    pts = _profile_breaks_s(rho)
    eigs = [_gamma_average_quad(rho, k, pts) for k in range(K)]
    return OperatorSpectrum(eigs, K, eigs[0])


def _gamma_q_inverse(K: int, q: float) -> float:
    """The s with Q(K, s) = q, for 0 < q < 1, on the head sums of ``Plane(1).sums``.

    Q(K, .) is the survival function of the log-concave Gamma(K) law, so
    log Q is concave and decreasing: a Newton step lands at or above the
    root, and the iterates decrease to it from there.  The derivative of
    log Q is -t_{K-1} / Q, with t_{K-1} the last Poisson mass of the head.
    """
    s = K - 1.0
    for i in range(100):
        Q = Plane(1).sums(K, s)[0][-1, 0]
        log_t = (K - 1) * math.log(s) - s - math.lgamma(K) if K > 1 else -s
        step = math.log(Q / q) * math.exp(math.log(Q) - log_t)
        # past the first step the iterates only decrease; a step that does
        # not is rounding noise
        if i and step > -4.0 * EPS * s:
            break
        s += step
    return s


def _profile_breaks_s(rho: RadialProfile) -> list[float]:
    if rho.kind == "indicator":
        return [math.pi * rho.edge ** 2]
    if rho.kind == "truncated":
        return [rho.shape * math.log(rho.amplitude / rho.cap)]
    if rho.kind == "sampled":
        return list(math.pi * rho.knots ** 2)
    return []


def _gamma_average_quad(rho: RadialProfile, k: int, pts: list[float]) -> float:
    """int rho s^k e^{-s} / k! ds, with the Gamma(k + 1) density written
    about its mode m = max(k, 1) as c exp(k log(s/m) - (s - m)).

    That exponent is small where the density is not, so it rounds to a few
    ulps; exp(k log s - s - log k!) carries ulps of its large terms, 7e-14
    at k = 120.  c = m^k e^{-m} / k! is rounded once from 30 digits.
    """
    import decimal   # here, so that loading the module does not load it

    m = max(k, 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        c = float(decimal.Decimal(m) ** k * decimal.Decimal(-m).exp() / math.factorial(k))
    upper = k + 1 + 40.0 * math.sqrt(k + 1.0) + 40.0
    if rho.kind in ("indicator", "sampled"):
        upper = min(upper, max(pts))
    return integrate(lambda s: rho(np.sqrt(s / math.pi)) * c * np.exp(k * np.log(s / m) - (s - m)),
                     upper, pts)[0]


def operator_norm(op) -> float:
    """L^2 -> L^2 norm: the largest |eigenvalue| of a spectrum or a Hermitian matrix."""
    return (op if isinstance(op, OperatorSpectrum) else spectrum_from_matrix(op)).norm()


def expectation(M: np.ndarray, f_coeffs: np.ndarray, g_coeffs: np.ndarray | None = None) -> complex:
    """<L_F f, g> from basis coefficients and an assembled matrix."""
    g = f_coeffs if g_coeffs is None else g_coeffs
    return complex(np.dot(f_coeffs, M @ np.conj(g)))


# ---------------------------------------------------------------------------
# concentration functionals
# ---------------------------------------------------------------------------

def concentration(f: Signal, region: WeightField) -> float:
    """<L_F f, f> = int F |Vf|^2 for a real weight field F on the STFT's grid.

    For the indicator of a set, such as
    ``RadialProfile.ball(1.0, area).on_grid(half_width, n)``, this is the
    fraction of f's phase-space energy inside the set.
    """
    if np.iscomplexobj(region.values):
        raise InvalidInputError("the region must be a real weight field")
    field = stft(f, region.half_width, region.n)
    return float(np.sum(region.values * np.abs(field.values) ** 2) * field.cell_area)


def lieb_quotient(f: Signal, p: float, half_width: float = 6.0, n: int = 256) -> float:
    """||Vf||_{L^p} over the plane; at most (2/p)^{1/p} for unit-norm f."""
    if p < 2:
        raise InvalidInputError("the phase-space L^p bound holds for p >= 2")
    return lp_norm(stft(f, half_width, n), p)
