"""Cauchy-wavelet transform, hyperbolic geometry, and wavelet operator spectra.

The transform maps Hardy-space signals isometrically into L^2 of the upper
half-plane with the invariant measure nu = y^{-2} dx dy.  Through the Cayley
map w = (z - i)/(z + i) everything radial about i becomes radial in the disc
coordinate x = |w|^2, where symbols diagonalize against the Beta(k+1, 2 beta)
densities.

The disc is one setting of the measure-coordinate core in ``core``: the
hyperbolic measure of {|w|^2 < x} is s = 4 pi x / (1 - x), half-plane fields
are grid fields with nu cell masses, a disc profile is a ``MeasureProfile``
whose setting ``Disc`` holds its coordinate map, power family and grid
sampling (``DiscProfile`` names its constructors), and whose instance
``Disc(beta)`` is the spectral law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import GridField, MeasureProfile, gauss_panels, lp_norm
from .errors import InvalidInputError
from .gabor import OperatorSpectrum, basis_recurrence, gram_operator, mirror_fold
from .scalar import Disc

__all__ = [
    "cauchy_norm_const",
    "HardySignal",
    "cauchy_wavelet",
    "disc_basis_frequency",
    "HalfPlaneGrid",
    "HalfPlaneField",
    "wavelet_transform",
    "wavelet_transform_grid",
    "bergman_basis",
    "DiscProfile",
    "bergman_radial_eigenvalues",
    "assemble_wavelet_operator",
    "lp_norm_nu",
    "nu_window_integral",
]


# wavelet_transform_grid: a y row drops the frequency tail whose sum |B| is
# at most this share of the row's sum |B|, below the products' own rounding
_TAIL_RTOL = 1e-17
# y rows per product: on the windowed isometry grid 32 beat 8, 16, 64 and 288
_ROW_BLOCK = 32
# frequencies per chunk: bounds the trig block and the radial rows held at once;
# on verify's windowed isometry stack (3 x 6000 frequencies, 480 x 144 nodes)
# 512, 1024, 2048 and one chunk peaked at 8.5, 12, 19 and 45 MB traced, and
# 1024 took 3% longer than 2048
_FREQ_CHUNK = 1024


def cauchy_norm_const(beta: float) -> float:
    """c_beta with c_beta^2 = 2 pi 2^{-2 beta} Gamma(2 beta)."""
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    return math.sqrt(2.0 * math.pi * math.exp(-2.0 * beta * math.log(2.0)
                                              + math.lgamma(2.0 * beta)))


# Gauss-Laguerre nodes of ``from_function`` and ``from_disc_coeffs`` signals
_N_FREQ = 160


@lru_cache(maxsize=1)
def _frequency_rule():
    """_N_FREQ Gauss-Laguerre nodes with weights converted for plain
    int_0^inf dω, computed on first use (not at import).

    Beyond ~180 nodes the raw weights underflow; those far nodes carry
    e^{-omega} factors below double precision for every integrand here, so
    their converted weights are set to zero.
    """
    om, w = np.polynomial.laguerre.laggauss(_N_FREQ)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    return om, np.where(np.isfinite(logw), np.exp(logw + om), 0.0)


# ---------------------------------------------------------------------------
# Hardy-space signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardySignal:
    """Frequency samples of f-hat on a positive-axis quadrature grid.

    ``weights`` integrate smooth functions against d omega on (0, inf), so
    every L^2 pairing is a plain weighted dot product.
    """

    omegas: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, float)
        v = np.asarray(self.values, complex)
        w = np.asarray(self.weights, float)
        if not (om.shape == v.shape == w.shape) or om.ndim != 1:
            raise InvalidInputError("omegas, values, weights must be matching 1-d arrays")
        if not all(np.all(np.isfinite(a)) for a in (om, v, w)):
            raise InvalidInputError("omegas, values, weights must be finite")
        if np.any(om <= 0):
            raise InvalidInputError("Hardy signals live on omega > 0")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_function(cls, fhat) -> "HardySignal":
        om, w = _frequency_rule()
        return cls(om, np.asarray(fhat(om), complex), w)

    @classmethod
    def on_uniform_grid(cls, fhat, omega_max: float, n: int) -> "HardySignal":
        """n midpoints of a uniform grid on (0, omega_max), with their weights.

        Denser near zero than Gauss-Laguerre; the transform then stays
        accurate out to |x| of order pi / spacing, which windowed-quadrature
        oracles need.
        """
        dw = omega_max / n
        om = (np.arange(n) + 0.5) * dw
        return cls(om, np.asarray(fhat(om), complex), np.full(n, dw))

    @classmethod
    def from_disc_coeffs(cls, coeffs, beta: float) -> "HardySignal":
        coeffs = np.asarray(coeffs, complex)
        om, w = _frequency_rule()
        return cls(om, coeffs @ _disc_basis_stack(coeffs.size, beta, om), w)

    def l2_norm(self) -> float:
        return float(math.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))


def cauchy_wavelet(beta: float) -> HardySignal:
    """The analyzing wavelet: f-hat = omega^beta e^{-omega} / c_beta."""
    cb = cauchy_norm_const(beta)
    return HardySignal.from_function(lambda om: om ** beta * np.exp(-om) / cb)


def disc_basis_frequency(k: int, beta: float, omegas) -> np.ndarray:
    """Orthonormal Hardy basis whose transforms are disc monomials.

    e_k-hat = n_k omega^beta e^{-omega} L_k^{(2 beta)}(2 omega); e_0 is the
    normalized analyzing wavelet.
    """
    return _disc_basis_stack(k + 1, beta, np.asarray(omegas, float))[k]


def _disc_basis_stack(K: int, beta: float, om: np.ndarray) -> np.ndarray:
    """e_0-hat .. e_{K-1}-hat, shape (K, len(om)), by the three-term
    recurrence of the normalized Laguerre functions (DLMF 18.9).

    With a = 2 beta and y = 2 omega, l_k = sqrt(2^{a+1} k! / Gamma(k+a+1))
    L_k^{(a)}(y) obeys sqrt((k+1)(k+1+a)) l_{k+1}
    = (2k+1+a-y) l_k - sqrt(k(k+a)) l_{k-1}, and e_k-hat = omega^beta
    e^{-omega} l_k(y).
    """
    a, y = 2.0 * beta, 2.0 * om
    out = np.empty((K, om.size))
    prev, cur = 0.0, np.full(om.size, math.exp(0.5 * ((a + 1.0) * math.log(2.0)
                                                       - math.lgamma(a + 1.0))))
    for k in range(K):
        out[k] = cur
        prev, cur = cur, (((2 * k + 1 + a) - y) * cur
                          - math.sqrt(k * (k + a)) * prev) / math.sqrt((k + 1) * (k + 1 + a))
    return out * (om ** beta * np.exp(-om))


# ---------------------------------------------------------------------------
# half-plane grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfPlaneGrid:
    """Cells uniform in x and logarithmic in y, with exact hyperbolic masses.

    Any finite, strictly increasing edges with y_edges[0] > 0 are accepted,
    so every cell mass is finite and positive.
    """

    x_edges: np.ndarray
    y_edges: np.ndarray

    def __post_init__(self):
        for name in ("x_edges", "y_edges"):
            e = np.asarray(getattr(self, name), dtype=float)
            if e.ndim != 1 or e.size < 2:
                raise InvalidInputError(f"{name} must be a 1-d array of at least 2 edges")
            if not np.all(np.isfinite(e)):
                raise InvalidInputError(f"{name} must be finite")
            if np.any(np.diff(e) <= 0):
                raise InvalidInputError(f"{name} must increase strictly")
            object.__setattr__(self, name, e)
        # below the smallest normal float, 1 / y and the cell masses overflow
        if not self.y_edges[0] >= np.finfo(float).tiny:
            raise InvalidInputError("grid must stay strictly inside y > 0")

    @classmethod
    def logarithmic(cls, x_min: float, x_max: float, nx: int,
                    y_min: float, y_max: float, ny: int) -> "HalfPlaneGrid":
        if y_min <= 0:
            raise InvalidInputError("grid must stay strictly inside y > 0")
        return cls(np.linspace(x_min, x_max, nx + 1),
                   np.geomspace(y_min, y_max, ny + 1))

    @property
    def x(self) -> np.ndarray:
        return 0.5 * (self.x_edges[:-1] + self.x_edges[1:])

    @property
    def y(self) -> np.ndarray:
        return np.sqrt(self.y_edges[:-1] * self.y_edges[1:])

    def cell_masses(self) -> np.ndarray:
        """Exact nu-mass per cell: dx * (1/y_lo - 1/y_hi)."""
        dx = np.diff(self.x_edges)
        dyinv = 1.0 / self.y_edges[:-1] - 1.0 / self.y_edges[1:]
        return np.outer(dx, dyinv)


@dataclass(frozen=True)
class HalfPlaneField(GridField):
    grid: HalfPlaneGrid
    values: np.ndarray  # shape (nx, ny)

    def __post_init__(self):
        self._store_values((self.grid.x.size, self.grid.y.size))

    def cell_masses(self) -> np.ndarray:
        return self.grid.cell_masses()


# the L^p norm against nu: a half-plane field is a grid field with nu masses
lp_norm_nu = lp_norm


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

def wavelet_transform_grid(f, beta: float, xs, ys) -> np.ndarray:
    """Wf on the tensor grid xs x ys, shape (len(xs), len(ys)).

    ``f`` is one ``HardySignal`` or a sequence of m signals on one frequency
    grid; a sequence gives shape (m, len(xs), len(ys)), and one signal is the
    m = 1 case with the signal axis dropped.

    Wf(x, y) = sum_omega e^{i x omega} B[y, omega] with the separable row
    B[y, omega] = sqrt(y) (y omega)^beta e^{-y omega} w f-hat / c_beta, so the
    grid is a few real matrix products over the frequency samples, which is
    what makes windowed quadratures affordable.  The radial factor, the trig
    table and the row blocks are shared by all m signals, each block one
    product whose columns cover every signal.  Two savings change no value
    beyond rounding:

    - x -> |x| fold: e^{i x omega} = cos(|x| omega) + i sign(x) sin(|x| omega),
      so cos and sin are taken only at the distinct |x|, and both signs of x
      come from the same products against [Re B, Im B].  A grid symmetric
      about 0 costs half the trig calls and half the flops.
    - frequency tail cut: with the frequencies ascending, each y row drops
      its longest trailing suffix whose sum |B| is at most
      ``_TAIL_RTOL`` = 1e-17 of the row's sum |B|, with |B| taken as the
      largest over the m signals, which bounds every signal's tail.  Since
      |e^{i x omega}| = 1 the cut moves every Wf(x, y) by at most
      1e-17 sum |B|, below the ~1.1e-16 sum |B| rounding bound of the
      products themselves.  Rows are grouped by kept length in blocks of
      ``_ROW_BLOCK``, one product per block and frequency chunk.

    The frequencies are summed in chunks of ``_FREQ_CHUNK``: each chunk
    builds its own cos/sin block and the radial factor of its rows, and its
    products add into the sums.  With n_x distinct |x| and n_y rows the
    working set is O(chunk (n_x + n_y) + m n_x n_y), whatever the number of
    frequencies.  Each row's cut needs the row's total, which a first pass
    over row blocks takes.  Up to one chunk of frequencies, the products
    are those of an unchunked sum.
    """
    single = isinstance(f, HardySignal)
    fs = [f] if single else list(f)
    if not fs:
        raise InvalidInputError("at least one signal is needed")
    if not all(np.array_equal(g.omegas, fs[0].omegas) for g in fs[1:]):
        raise InvalidInputError("signals must share one frequency grid")
    xs = np.asarray(xs, float).ravel()
    ys = np.asarray(ys, float).ravel()
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InvalidInputError("evaluation points must be finite")
    if np.any(ys <= 0):
        raise InvalidInputError("evaluation points must satisfy y > 0")
    cb = cauchy_norm_const(beta)
    order = np.argsort(fs[0].omegas)
    om = fs[0].omegas[order]
    fw = np.stack([(g.weights * g.values / cb)[order] for g in fs])   # (m, n_om)
    sqrt_y = np.sqrt(ys)

    def radial(rows, n0, n1):
        """sqrt(y) (y omega)^beta e^{-y omega} >= 0 on ys[rows] x om[n0:n1],
        built in the buffer of y omega; |B| <= radial * max_m |fw_m|."""
        r = ys[rows, None] * om[None, n0:n1]
        decay = np.exp(-r)
        np.power(r, beta, out=r)
        np.multiply(sqrt_y[rows, None], r, out=r)
        r *= decay
        return r

    # first pass, by row blocks: tail[:, j] = sum_{k >= j} max_m |B_m[:, k]|,
    # non-increasing along each row; a finite row total leaves every term of
    # the row finite, so the chunks below need no guard
    abs_fw = np.abs(fw).max(axis=0)[::-1]
    keep = np.empty(ys.size, dtype=np.intp)
    for start in range(0, ys.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise below
            tail = radial(rows, 0, om.size)[:, ::-1] * abs_fw
            tail = np.cumsum(tail, axis=1, out=tail)[:, ::-1]
        if not np.all(np.isfinite(tail[:, :1])):
            raise InvalidInputError("transform rows are not finite at these (y, beta)")
        keep[rows] = np.count_nonzero(tail > _TAIL_RTOL * tail[:, :1], axis=1)

    ax, inv = np.unique(np.abs(xs), return_inverse=True)
    k = ax.size
    m = fw.shape[0]
    # cos(|x| omega) then sin(|x| omega) rows against Re B and Im B columns
    re = np.zeros((m, 2 * k, ys.size))
    im = np.zeros_like(re)
    rows = np.argsort(-keep, kind="stable")
    blocks = [rows[start:start + _ROW_BLOCK] for start in range(0, rows.size, _ROW_BLOCK)]

    def add_chunk(n0, n1):
        """Add the products over the frequencies om[n0:n1] into re and im."""
        trig = np.empty((2 * k, n1 - n0))
        np.multiply.outer(ax, om[n0:n1], out=trig[:k])
        np.sin(trig[:k], out=trig[k:])
        np.cos(trig[:k], out=trig[:k])
        for blk in blocks:   # kept lengths descend, so later blocks end earlier
            n = min(keep[blk[0]], n1) - n0
            if n <= 0:
                return
            rb = radial(blk, n0, n0 + n)
            # columns: Re B of every signal, then Im B of every signal
            cols = np.empty((2, m, blk.size, n))
            np.multiply(rb, fw.real[:, None, n0:n0 + n], out=cols[0])
            np.multiply(rb, fw.imag[:, None, n0:n0 + n], out=cols[1])
            prod = (trig[:, :n] @ cols.reshape(2 * m * blk.size, n).T).reshape(2 * k, 2, m, blk.size)
            re[:, :, blk] += prod[:, 0].transpose(1, 0, 2)
            im[:, :, blk] += prod[:, 1].transpose(1, 0, 2)

    n_kept = keep.max(initial=0)
    for n0 in range(0, n_kept, _FREQ_CHUNK):
        add_chunk(n0, min(n0 + _FREQ_CHUNK, n_kept))
    out = np.empty((m, xs.size, ys.size), dtype=complex)
    sgn = np.sign(xs)[:, None]
    for o, r, i in zip(out, re, im):
        # Re Wf = cos Re B - sign(x) sin Im B, Im Wf = cos Im B + sign(x) sin Re B
        np.multiply(-sgn, i[k + inv], out=o.real)
        np.add(o.real, r[inv], out=o.real)
        np.multiply(sgn, r[k + inv], out=o.imag)
        np.add(o.imag, i[inv], out=o.imag)
    return out[0] if single else out


def wavelet_transform(f: HardySignal, beta: float, grid: HalfPlaneGrid) -> HalfPlaneField:
    """Wf sampled at the cell centers of a half-plane grid."""
    return HalfPlaneField(grid, wavelet_transform_grid(f, beta, grid.x, grid.y))


def bergman_basis(K: int, beta: float, x, y, center: complex = 1j) -> np.ndarray:
    """Closed-form transforms W e_0 .. W e_{K-1}, optionally recentered.

    Built from the Laplace integral of the Laguerre basis; the recurrence
    multiplies by the Cayley coordinate w(z).  Recentring uses the unitary
    dilation-translation covariance of the transform.
    """
    xc, yc, w, c0 = _bergman_coordinates(beta, x, y, center)
    q2 = 0.5 * (1.0 - 1j * (xc + 1j * yc))   # Re > 0: principal powers are safe
    row0 = yc ** (beta + 0.5) * c0 * q2 ** (-(2 * beta + 1))
    return basis_recurrence(row0, w, _bergman_ratios(K, beta))


def _bergman_coordinates(beta: float, x, y, center: complex):
    """Recentred coordinates (xc, yc), the Cayley coordinate w and the
    constant c0 of |W e_0| = c0 (1 - |w|^2)^{beta + 1/2}."""
    x = np.asarray(x, float).ravel()
    y = np.asarray(y, float).ravel()
    if np.any(y <= 0):
        raise InvalidInputError("basis evaluation needs y > 0")
    center = Disc.check_center(center)
    x0, y0 = float(center.real), float(center.imag)
    if not beta > 0:
        raise InvalidInputError("beta must be positive")
    xc = (x - x0) / y0
    yc = y / y0
    z = xc + 1j * yc
    w = (z - 1j) / (z + 1j)
    # c0^2 = 2^{-(2 beta + 1)} Gamma(2 beta + 1) / c_beta^2 = beta / (2 pi)
    return xc, yc, w, math.sqrt(beta / (2.0 * math.pi))


def _bergman_ratios(K: int, beta: float) -> np.ndarray:
    """W e_k = W e_{k-1} w sqrt((2 beta + k) / k), k = 1 .. K-1."""
    k = np.arange(1.0, K)
    return np.sqrt((2 * beta + k) / k)


# ---------------------------------------------------------------------------
# disc-model radial symbols
# ---------------------------------------------------------------------------

class DiscProfile(MeasureProfile):
    """Named constructors of profiles on the disc, setting ``Disc``: the
    hyperbolic disc of given nu-measure, the power amplitude (1 - x)^exponent
    (decreasing for exponent > 0) and its truncation at cap, steps in x in
    (0, 1) and a constant."""

    @classmethod
    def indicator(cls, amplitude: float, nu_measure: float, center: complex = 1j) -> "DiscProfile":
        """amplitude on the hyperbolic disc of that nu-measure about center."""
        return cls(**Disc.indicator(amplitude, nu_measure), center=center)

    @classmethod
    def power(cls, amplitude: float, exponent: float, center: complex = 1j) -> "DiscProfile":
        return cls(Disc, "family", amplitude, exponent, center=center)

    @classmethod
    def truncated_power(cls, amplitude: float, exponent: float, cap: float,
                        center: complex = 1j) -> "DiscProfile":
        return cls(Disc, "truncated", amplitude, exponent, cap=cap, center=center)

    @classmethod
    def constant(cls, level: float, center: complex = 1j) -> "DiscProfile":
        return cls(Disc, "constant", level, center=center)

    @classmethod
    def sampled(cls, knots, values, center: complex = 1j) -> "DiscProfile":
        return cls(Disc, "sampled", knots=np.asarray(knots, float),
                   knot_values=np.asarray(values, float), center=center)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def bergman_radial_eigenvalues(rho: DiscProfile, beta: float, K: int) -> OperatorSpectrum:
    """Spectrum of a nu-radial symbol about i, by Beta-density averages:
    lambda_k = int_0^1 rho(x) x^k (1-x)^{2 beta - 1} dx / B(k+1, 2 beta),
    rho averaged against the negative-binomial laws of ``Disc(beta)``."""
    return OperatorSpectrum.from_eigenvalues(rho.eigenvalues(K, Disc(beta)))


def assemble_wavelet_operator(F: HalfPlaneField, beta: float, K: int,
                              center: complex = 1j) -> np.ndarray:
    """K x K matrix of L_{F, beta} by hyperbolic quadrature on the grid.

    Entries are int F W e_j conj(W e_k) d nu against the basis recentered at
    ``center`` (covariance makes the recentered family orthonormal too),
    summed over the cell centers by the one Gram kernel of both settings,
    ``gabor.gram_operator``, on the basis stack: row 0 is the modulus
    c0 (1 - |w|^2)^{beta + 1/2}, since the phase of W e_0 cancels.  When
    the grid's x is symmetric about Re(center), the cells at x and
    2 Re(center) - x pair up (``gabor.mirror_fold``): their w conjugate.
    """
    if K < 1:
        raise InvalidInputError("K must be >= 1")
    center = Disc.check_center(center)
    _, wf, wm = mirror_fold(F.grid.x - center.real, F.grid.cell_masses() * F.values)
    # only nodes of nonzero weight enter the sum, so only theirs are built
    live = wf != 0.0 if wm is None else (wf != 0.0) | (wm != 0.0)
    ix, iy = np.divmod(np.flatnonzero(live), F.grid.y.size)
    xc, yc, w, c0 = _bergman_coordinates(beta, F.grid.x[ix], F.grid.y[iy], center)
    # 1 - |w|^2 = 4 yc / |z + i|^2, without the cancellation near the boundary
    row0 = c0 * (4.0 * yc / (xc * xc + (1.0 + yc) ** 2)) ** (beta + 0.5)
    return gram_operator(row0, w, _bergman_ratios(K, beta),
                         *(x[live] for x in (wf, wm) if x is not None))


_WINDOW_X, _WINDOW_Y = (-20.0, 20.0), (5e-3, 100.0)
_WINDOW_PANELS_X, _WINDOW_PANELS_Y, _WINDOW_ORDER = 160, 48, 3


def nu_window_integral(fun):
    """int fun dnu over the window [-20, 20] x [5e-3, 100], by Gauss-Legendre
    panels in (x, log y).

    ``fun`` receives the separable node arrays (xs, ys) and must return
    values of shape (..., len(xs), len(ys)); the result holds one integral
    per leading index, a numpy value of shape () for one integrand.  The
    y^{-2} density is absorbed into the log-coordinate weights.
    """
    xs, xw = gauss_panels(np.linspace(*_WINDOW_X, _WINDOW_PANELS_X + 1), _WINDOW_ORDER)
    ss, sw = gauss_panels(np.linspace(math.log(_WINDOW_Y[0]), math.log(_WINDOW_Y[1]),
                                      _WINDOW_PANELS_Y + 1), _WINDOW_ORDER)
    ys = np.exp(ss)
    vals = np.asarray(fun(xs, ys), float)
    if vals.shape[-2:] != (xs.size, ys.size):
        raise InvalidInputError("fun must return values on the tensor grid")
    # d nu = y^{-2} dx dy = e^{-s} dx ds
    return np.einsum("i,j,...ij->...", xw, sw / ys, vals)
