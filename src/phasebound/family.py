"""The extremal weight of each setting, on the standard library alone.

A weight is a dict of its setting, its ``kind`` and its parameters, named
as the fields of ``core.MeasureProfile``: an indicator of coordinates below
``edge`` (the ball regime), the setting's ``family`` of peak ``amplitude``
and ``shape`` (the plane's Gaussian lam e^{-pi r^2/(p-1)}, the disc's
power lam (1 - x)^{1/alpha}), or that family ``truncated`` at ``cap`` = A.
``extremal_family`` reads it off a ``BoundReport`` for ``extremals``;
``sample_family`` samples an analytic kind for ``io``'s CSV writers.  Both
read the parameters, the grid and the values off the setting
(``scalar.Plane`` or ``scalar.Disc``).
"""
from __future__ import annotations

import math

from .errors import InvalidInputError

__all__ = ["extremal_family", "sample_family"]


def extremal_family(report) -> dict:
    """Kind and parameters of the weight that attains the report's bound.

    The ball regime gives the amplitude-A indicator of measure B/A.  The
    other regimes give the family at peak lam, capped at A when the regime is
    truncated.  At the regime tie, a truncated lam may round to at most A.
    The cap then changes nothing, and the uncapped family is returned.
    """
    c = report.inputs
    if report.regime == "ball":
        return c.setting.indicator(c.A, c.B / c.A)
    capped = report.regime == "truncated" and report.lam > c.A
    return c.setting.family(c, report.lam, c.A if capped else math.inf)


def sample_family(params: dict, n: int) -> tuple[list, list]:
    """n coordinates and values of an analytic kind, as float lists.

    The coordinates are the setting's ``sample_grid``, bitwise the numpy
    grid.  The values go through libm's exp and pow, so they may differ by
    an ulp from the profile's numpy evaluation.  A constant has no extent
    to sample.
    """
    if not n >= 2:
        raise InvalidInputError(f"need at least 2 samples, got {n}")
    if params["kind"] == "constant":
        raise InvalidInputError("a constant profile has no extent: cannot choose a CSV grid")
    setting = params["setting"]
    coords = setting.sample_grid(params, n)
    if params["kind"] == "indicator":
        a, edge = float(params["amplitude"]), params["edge"]
        return coords, [a if t < edge else 0.0 for t in coords]
    return coords, setting.family_values(params, coords)
