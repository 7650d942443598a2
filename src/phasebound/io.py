"""CSV interchange for weights, profiles and spectra.

Formats:
  weight field   header ``x,omega,re,im``, row-major over the centered square grid
  radial profile header ``r,value`` with strictly increasing r
  disc profile   header ``x,value`` with strictly increasing x in (0, 1)
  half-plane     header ``x,y,re,im``, row-major, uniform in x, geometric in y
  spectrum       header ``k,eigenvalue``

Every reader checks the header, the column count of every row and that
every entry is a finite number; the grid readers also check the
coordinates against the grid they imply.
"""
from __future__ import annotations

import csv
import math

import numpy as np

from .core import RadialProfile, WeightField
from .errors import InvalidInputError
from .gabor import OperatorSpectrum
from .wavelet import DiscProfile, HalfPlaneField, HalfPlaneGrid

__all__ = [
    "write_weight_field", "read_weight_field",
    "write_radial_profile", "read_radial_profile",
    "write_disc_profile", "read_disc_profile",
    "write_halfplane_field", "read_halfplane_field",
    "write_spectrum", "sniff_weight_file",
]

# grid coordinates may differ from the grid they imply by this many cells
_GRID_RTOL = 1e-9


def _write_rows(path, header, *columns):
    """One CSV row per entry of the equal-length columns; floats in repr form."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(np.asarray(c).ravel().tolist() for c in columns)))


def _read_rows(path, header) -> np.ndarray:
    """The data rows of a CSV file with the given header, as a float array."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or [h.strip() for h in got] != header:
            raise InvalidInputError(f"{path}: expected header {','.join(header)}")
        rows = [row for row in reader if row]
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise InvalidInputError(
                f"{path}: row {line} has {len(row)} columns, expected {len(header)}")
    try:
        out = np.array([[float(x) for x in row] for row in rows], dtype=float)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: non-numeric entry ({exc})") from exc
    if out.size == 0:
        raise InvalidInputError(f"{path}: no data rows")
    if not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{path}: entries must be finite")
    return out


def _check_axis(path, name, got, want, step):
    """File coordinates against the implied grid, to round-off of a cell."""
    if np.max(np.abs(got - want)) > _GRID_RTOL * step:
        raise InvalidInputError(
            f"{path}: {name} coordinates do not form the grid they imply "
            "(rows out of order, missing or unevenly spaced)")


def write_weight_field(field: WeightField, path):
    ax, n = field.axis, field.n
    _write_rows(path, ["x", "omega", "re", "im"], np.repeat(ax, n), np.tile(ax, n),
                field.values.real, field.values.imag)


def read_weight_field(path) -> WeightField:
    rows = _read_rows(path, ["x", "omega", "re", "im"])
    n = int(round(math.sqrt(rows.shape[0])))
    if n * n != rows.shape[0] or n < 2:
        raise InvalidInputError(f"{path}: row count {rows.shape[0]} is not a square grid")
    lo, hi = rows[:, 0].min(), rows[:, 0].max()
    cell = (hi - lo) / (n - 1)
    field = WeightField((hi - lo + cell) / 2.0, n, (rows[:, 2] + 1j * rows[:, 3]).reshape(n, n))
    _check_axis(path, "x", rows[:, 0], np.repeat(field.axis, n), cell)
    _check_axis(path, "omega", rows[:, 1], np.tile(field.axis, n), cell)
    return field


def write_radial_profile(profile: RadialProfile, path, n_samples: int = 512):
    """Write r,value rows: a sampled profile's knots, any other kind sampled
    on a uniform radius grid out to its extent."""
    if profile.kind == "sampled":
        rs, vals = profile.knots, profile.knot_values
    else:
        r_max = _profile_extent(profile)
        rs = np.linspace(r_max / n_samples, r_max, n_samples)
        vals = profile(rs)
    _write_rows(path, ["r", "value"], rs, vals)


def _profile_extent(profile: RadialProfile) -> float:
    if profile.kind == "ball_indicator":
        return profile.radius * 1.25
    if profile.kind in ("gaussian", "truncated_gaussian"):
        # radius where the Gaussian factor has decayed to 1e-12
        return math.sqrt(profile.scale * 12.0 * math.log(10.0) / math.pi)
    raise InvalidInputError(f"cannot choose an extent for kind {profile.kind!r}")


def read_radial_profile(path) -> RadialProfile:
    rows = _read_rows(path, ["r", "value"])
    return RadialProfile.sampled(rows[:, 0], np.maximum(rows[:, 1], 0.0))


def write_disc_profile(profile: DiscProfile, path, n_samples: int = 512):
    if profile.kind == "sampled":
        xs, vals = profile.knots, profile.knot_values
    else:
        xs = np.linspace(0.0, 1.0, n_samples + 2)[1:-1]
        vals = profile(xs)
    _write_rows(path, ["x", "value"], xs, vals)


def read_disc_profile(path) -> DiscProfile:
    rows = _read_rows(path, ["x", "value"])
    vals = np.maximum(rows[:, 1], 0.0)
    # enforce the nonincreasing invariant up to round-off from sampling
    vals = np.minimum.accumulate(vals)
    return DiscProfile.sampled(rows[:, 0], vals)


def write_halfplane_field(field: HalfPlaneField, path):
    xs, ys = field.grid.x, field.grid.y
    _write_rows(path, ["x", "y", "re", "im"], np.repeat(xs, ys.size), np.tile(ys, xs.size),
                field.values.real, field.values.imag)


def read_halfplane_field(path) -> HalfPlaneField:
    rows = _read_rows(path, ["x", "y", "re", "im"])
    nx, ny = np.unique(rows[:, 0]).size, np.unique(rows[:, 1]).size
    if nx * ny != rows.shape[0]:
        raise InvalidInputError(f"{path}: rows do not form a tensor grid")
    if nx < 2 or ny < 2:
        raise InvalidInputError(f"{path}: need at least 2 points per axis, got {nx} x {ny}")
    # centers uniform in x and geometric in y; edges halfway between them
    x0, x1 = rows[:, 0].min(), rows[:, 0].max()
    y0, y1 = rows[:, 1].min(), rows[:, 1].max()
    if y0 <= 0:
        raise InvalidInputError(f"{path}: half-plane points need y > 0")
    dx = (x1 - x0) / (nx - 1)
    log_step = math.log(y1 / y0) / (ny - 1)
    xs = x0 + np.arange(nx) * dx
    ys = y0 * np.exp(np.arange(ny) * log_step)
    _check_axis(path, "x", rows[:, 0], np.repeat(xs, ny), dx)
    _check_axis(path, "y", np.log(rows[:, 1]), np.tile(np.log(ys), nx), log_step)
    ry = math.exp(log_step / 2.0)
    grid = HalfPlaneGrid(np.concatenate([xs - dx / 2.0, [xs[-1] + dx / 2.0]]),
                         np.concatenate([ys / ry, [ys[-1] * ry]]))
    return HalfPlaneField(grid, (rows[:, 2] + 1j * rows[:, 3]).reshape(nx, ny))


def write_spectrum(spectrum: OperatorSpectrum, path):
    _write_rows(path, ["k", "eigenvalue"], np.arange(spectrum.eigenvalues.size),
                spectrum.eigenvalues)


def sniff_weight_file(path) -> str:
    """Return the format tag of a weight CSV: field, radial, disc, halfplane."""
    with open(path, newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh), [])]
    known = {
        ("x", "omega", "re", "im"): "field",
        ("r", "value"): "radial",
        ("x", "value"): "disc",
        ("x", "y", "re", "im"): "halfplane",
    }
    try:
        return known[tuple(header)]
    except KeyError:
        raise InvalidInputError(f"{path}: unrecognized header {header}") from None
