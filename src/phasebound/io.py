"""CSV interchange for weights, profiles and spectra.

Formats:
  weight field   header ``x,omega,re,im``, row-major over the centered square grid
  radial profile header ``r,value`` with strictly increasing r
  disc profile   header ``x,value`` with strictly increasing x in (0, 1)
  half-plane     header ``x,y,re,im``, row-major, uniform in x, geometric in y
  spectrum       header ``k,eigenvalue``

Every reader checks the header, the column count of every row and that
every entry is a finite number; the grid readers also check the
coordinates against the grid they imply.  numpy and the weight classes
load inside the functions that use them: ``write_extremal`` loads neither,
and a plane file never loads ``wavelet``.
"""
from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from typing import TYPE_CHECKING

from .errors import InvalidInputError

if TYPE_CHECKING:
    from .bounds import BoundReport
    from .core import RadialProfile, WeightField
    from .gabor import OperatorSpectrum
    from .wavelet import DiscProfile, HalfPlaneField

__all__ = [
    "write_weight_field", "read_weight_field",
    "write_radial_profile", "read_radial_profile",
    "write_disc_profile", "read_disc_profile",
    "write_halfplane_field", "read_halfplane_field",
    "write_spectrum", "write_extremal", "sniff_weight_file", "read_weight",
]

# grid coordinates may differ from the grid they imply by this many cells
_GRID_RTOL = 1e-9

# tag: header and reader name (looked up at call time); _PROFILE: tag by coordinate
_FORMATS = {
    "field": (("x", "omega", "re", "im"), "read_weight_field"),
    "radial": (("r", "value"), "read_radial_profile"),
    "disc": (("x", "value"), "read_disc_profile"),
    "halfplane": (("x", "y", "re", "im"), "read_halfplane_field"),
    "spectrum": (("k", "eigenvalue"), None),
}
_PROFILE = {"r": "radial", "x": "disc"}


def _write_rows(path, header, *columns):
    """One CSV row per entry of the equal-length columns (float lists or
    arrays); floats in repr form."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(c if isinstance(c, list) else c.ravel().tolist() for c in columns)))


@contextmanager
def _open_text(path):
    """The file opened for ``csv``; a byte that is not UTF-8 is an InvalidInputError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not a UTF-8 text file") from None


def _read_rows(path, tag):
    """The data rows of a CSV file in the format ``tag``, as a float array.

    numpy's C parser reads a well-formed file; any file it rejects, or
    reads to the wrong shape, is parsed again by ``csv``, which either
    reads it (quoted fields) or names the offending row.
    """
    import numpy as np
    header = _FORMATS[tag][0]
    with _open_text(path) as fh:
        got = next(csv.reader([fh.readline()]))
        if tuple(h.strip() for h in got) != header:
            raise InvalidInputError(f"{path}: expected header {','.join(header)}")
        try:
            with warnings.catch_warnings():
                # an empty body warns; the csv parse below rejects it
                warnings.simplefilter("ignore", UserWarning)
                out = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            out = None
    if out is None or out.shape[1] != len(header) or out.size == 0:
        out = _parse_rows(path, header)
    if not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{path}: entries must be finite")
    return out


def _parse_rows(path, header):
    """The data rows after the header, parsed by ``csv`` row by row."""
    import numpy as np
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        next(reader)
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
    return out


def _check_axis(path, name, got, want, step):
    """File coordinates against the implied grid, to round-off of a cell."""
    if abs(got - want).max() > _GRID_RTOL * step:
        raise InvalidInputError(
            f"{path}: {name} coordinates do not form the grid they imply "
            "(rows out of order, missing or unevenly spaced)")


def write_weight_field(field: WeightField, path):
    import numpy as np
    ax, n = field.axis, field.n
    _write_rows(path, _FORMATS["field"][0], np.repeat(ax, n), np.tile(ax, n),
                field.values.real, field.values.imag)


def read_weight_field(path) -> WeightField:
    import numpy as np

    from .core import WeightField
    rows = _read_rows(path, "field")
    n = int(round(math.sqrt(rows.shape[0])))
    if n * n != rows.shape[0] or n < 2:
        raise InvalidInputError(f"{path}: row count {rows.shape[0]} is not a square grid")
    lo, hi = rows[:, 0].min(), rows[:, 0].max()
    cell = (hi - lo) / (n - 1)
    field = WeightField((hi - lo + cell) / 2.0, n, (rows[:, 2] + 1j * rows[:, 3]).reshape(n, n))
    _check_axis(path, "x", rows[:, 0], np.repeat(field.axis, n), cell)
    _check_axis(path, "omega", rows[:, 1], np.tile(field.axis, n), cell)
    return field


def _write_profile(path, params, n_samples, coordinate):
    """``coordinate``,value rows (r on the plane, x on the disc) of the
    profile whose fields ``params`` holds: a sampled one's knots, any other
    kind but a constant on the setting's grid (bitwise numpy's), in libm
    values.  Rows that are not finite raise before the file is opened."""
    setting, kind = params["setting"], params["kind"]
    if setting.coordinate != coordinate:
        raise InvalidInputError(f"a profile radial in {setting.coordinate} "
                                f"cannot be written as {coordinate},value rows")
    if kind == "sampled":
        coords, vals = params["knots"].tolist(), params["knot_values"].tolist()
    elif not n_samples >= 2:
        raise InvalidInputError(f"need at least 2 samples, got {n_samples}")
    elif kind == "constant":
        raise InvalidInputError("a constant profile has no extent: cannot choose a CSV grid")
    else:
        coords = setting.sample_grid(params, n_samples)
        if kind == "indicator":
            a, edge = float(params["amplitude"]), params["edge"]
            vals = [a if t < edge else 0.0 for t in coords]
        else:
            vals = setting.family_values(params, coords)
    if not all(map(math.isfinite, coords + vals)):
        raise InvalidInputError("the profile's samples are not finite (a peak level or "
                                "extent past the doubles): no CSV written")
    _write_rows(path, _FORMATS[_PROFILE[coordinate]][0], coords, vals)


def write_radial_profile(profile: RadialProfile, path, n_samples: int = 512):
    """Write r,value rows: a sampled profile's knots, any other kind but a
    constant sampled on a uniform radius grid out to its extent."""
    _write_profile(path, vars(profile), n_samples, "r")


def read_radial_profile(path) -> RadialProfile:
    from .core import RadialProfile
    return RadialProfile.sampled(*_read_rows(path, "radial").T)


def write_disc_profile(profile: DiscProfile, path, n_samples: int = 512):
    _write_profile(path, vars(profile), n_samples, "x")


def read_disc_profile(path) -> DiscProfile:
    from .wavelet import DiscProfile
    return DiscProfile.sampled(*_read_rows(path, "disc").T)


def write_extremal(report: BoundReport, path, n_samples: int = 512):
    """Write the extremal weight of a bound as its profile writer would,
    r,value on the plane and x,value on the disc, without numpy."""
    _write_profile(path, report.extremal(), n_samples, report.inputs.setting.coordinate)


def write_halfplane_field(field: HalfPlaneField, path):
    import numpy as np
    xs, ys = field.grid.x, field.grid.y
    _write_rows(path, _FORMATS["halfplane"][0], np.repeat(xs, ys.size), np.tile(ys, xs.size),
                field.values.real, field.values.imag)


def read_halfplane_field(path) -> HalfPlaneField:
    import numpy as np

    from .wavelet import HalfPlaneField, HalfPlaneGrid
    rows = _read_rows(path, "halfplane")
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
    import numpy as np
    _write_rows(path, _FORMATS["spectrum"][0], np.arange(spectrum.eigenvalues.size),
                spectrum.eigenvalues)


def sniff_weight_file(path) -> str:
    """Return the format tag of a weight CSV: field, radial, disc, halfplane."""
    with _open_text(path) as fh:
        header = [h.strip() for h in next(csv.reader(fh), [])]
    for tag, (known, reader) in _FORMATS.items():
        if reader and tuple(header) == known:
            return tag
    raise InvalidInputError(f"{path}: unrecognized header {header}")


def read_weight(path):
    """The weight in a CSV of any of the four formats, by its header."""
    return globals()[_FORMATS[sniff_weight_file(path)][1]](path)
