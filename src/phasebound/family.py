"""The extremal weight of each setting, on the standard library alone.

A weight is a dict of its ``kind`` and parameters, named as the fields of
``RadialProfile`` and ``DiscProfile``: an indicator (the ball regime), the
setting's family (the plane's Gaussian lam e^{-pi r^2/(p-1)}, the disc's
power lam (1 - x)^{1/alpha}), or that family capped at A.
``extremal_family`` reads it off a ``BoundReport`` for ``extremals``;
``sample_family`` samples an analytic kind for ``io``'s CSV writers.
"""
from __future__ import annotations

import math

from .errors import InvalidInputError

__all__ = ["ball_radius", "disc_threshold", "extremal_family", "sample_family"]


def ball_radius(volume: float, dim: int) -> float:
    """Radius of the ball of 2d-volume ``volume`` (area when dim = 1) in R^{2d}."""
    try:
        root = (volume * math.factorial(dim)) ** (1.0 / dim)
    except OverflowError:
        root = math.inf
    if root == math.inf:
        # d! or d! volume is past the doubles; the root is not
        root = math.exp((math.log(volume) + math.lgamma(dim + 1)) / dim)
    radius = math.sqrt(root / math.pi)
    if not radius > 0:
        raise InvalidInputError("ball needs a positive radius")
    return radius


def disc_threshold(nu_measure: float) -> float:
    """x = |w|^2 at the edge of the hyperbolic disc of that nu-measure."""
    x = nu_measure / (nu_measure + 4.0 * math.pi)
    if not 0 < x < 1:
        raise InvalidInputError("indicator threshold must lie in (0, 1)")
    return x


def extremal_family(report) -> dict:
    """Kind and parameters of the weight that attains the report's bound.

    The ball regime gives the amplitude-A indicator of measure B/A.  The
    other regimes give the family at peak lam, capped at A when the regime is
    truncated.  At the regime tie, a truncated lam may round to at most A.
    The cap then changes nothing, and the uncapped family is returned.
    """
    c = report.inputs
    if report.regime == "ball":
        if c.transform == "gabor":
            return {"kind": "ball_indicator", "amplitude": c.A,
                    "radius": ball_radius(c.B / c.A, c.d)}
        return {"kind": "disc_indicator", "amplitude": c.A,
                "x_threshold": disc_threshold(c.B / c.A)}
    capped = report.regime == "truncated" and report.lam > c.A
    cap = c.A if capped else math.inf
    if c.transform == "gabor":
        return {"kind": "truncated_gaussian" if capped else "gaussian",
                "amplitude": report.lam, "scale": c.p - 1.0, "cap": cap}
    return {"kind": "truncated_power" if capped else "power",
            "amplitude": report.lam, "exponent": 1.0 / c.alpha, "cap": cap}


def _extent(params: dict) -> float:
    """The largest CSV radius of a plane kind: past the ball's edge, or
    where the Gaussian factor has decayed to 1e-12."""
    kind = params["kind"]
    if kind == "ball_indicator":
        return params["radius"] * 1.25
    if kind in ("gaussian", "truncated_gaussian"):
        return math.sqrt(params["scale"] * 12.0 * math.log(10.0) / math.pi)
    raise InvalidInputError(f"cannot choose an extent for kind {kind!r}")


def sample_family(transform: str, params: dict, n: int) -> tuple[list, list]:
    """n coordinates and values of an analytic kind, as float lists.

    On the plane the radii are linspace(r_max / n, r_max, n), with r_max
    from ``_extent``.  On the disc the coordinates are the n interior
    points of linspace(0, 1, n + 2).  Both are bitwise the numpy grids.
    The values go through libm's exp and pow, so they may differ by an ulp
    from the profile's numpy evaluation.
    """
    if not n >= 2:
        raise InvalidInputError(f"need at least 2 samples, got {n}")
    if transform == "gabor":
        r_max = _extent(params)
        start = r_max / n
        step = (r_max - start) / (n - 1)
        coords = [i * step + start for i in range(n - 1)] + [r_max]
    else:
        step = 1.0 / (n + 1)
        coords = [i * step for i in range(1, n + 1)]
    kind, a = params["kind"], float(params["amplitude"])
    if kind in ("ball_indicator", "disc_indicator"):
        edge = params["radius" if transform == "gabor" else "x_threshold"]
        return coords, [a if t < edge else 0.0 for t in coords]
    if kind == "constant":
        return coords, [a] * n
    cap = params["cap"]
    if transform == "gabor":
        scale = params["scale"]
        return coords, [min(a * math.exp(-math.pi * r * r / scale), cap) for r in coords]
    exponent = params["exponent"]
    return coords, [min(a * (1.0 - x) ** exponent, cap) for x in coords]
