"""Variational problem: closed forms against the multiplier oracle."""
import math

import numpy as np
import pytest

from phasebound.bounds import gabor_bound, wavelet_bound
from phasebound.core import ConstraintSet
from phasebound.errors import RegimeError
from phasebound.varprob import (GaborKernel, WaveletKernel, constraint_moment,
                                kernel_for, solve_closed_form, solve_kkt_oracle)
from phasebound.verify import random_feasible_competitor

CASES = [
    ConstraintSet(2.0, 1.0, 1.0, "gabor", d=1),
    ConstraintSet(2.0, math.inf, 1.0, "gabor", d=1),
    ConstraintSet(1.5, 2.0, 1.0, "gabor", d=1),
    ConstraintSet(2.0, 1.0, 1.0, "gabor", d=2),
    ConstraintSet(3.0, 1.0, 1.4, "gabor", d=1),
    ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0),
    ConstraintSet(2.0, 1.0, 2.0, "wavelet", beta=1.0),
    ConstraintSet(3.0, 1.5, 1.0, "wavelet", beta=0.5),
]


def test_objective_examples():
    c = ConstraintSet(1.0, 2.0, 1.0, "gabor")
    sol = solve_closed_form(c)
    assert sol.objective_value == pytest.approx(2 * (1 - math.exp(-0.5)), abs=1e-12)
    # the subcritical maximizer at p=2, B=1 scores kappa^kappa = 2^{-1/2}
    c2 = ConstraintSet(2.0, math.inf, 1.0, "gabor")
    sol2 = solve_closed_form(c2)
    assert sol2.objective_value == pytest.approx(2 ** -0.5, abs=1e-11)


def test_constraint_moment_examples():
    # constant B/A at p = 1 integrates to B
    c = ConstraintSet(1.0, 2.0, 1.0, "gabor")
    assert constraint_moment(solve_closed_form(c).u, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    # the subcritical maximizer saturates B^p
    c = ConstraintSet(2.0, math.inf, 1.0, "gabor")
    sol = solve_closed_form(c)
    assert constraint_moment(sol.u, c.p, c.A, breaks=(sol.lam,)) == pytest.approx(1.0, abs=1e-11)
    # wavelet kernel with the closed-form level
    c = ConstraintSet(2.0, math.inf, 1.3, "wavelet", beta=1.0)
    sol = solve_closed_form(c)
    assert constraint_moment(sol.u, c.p, c.A, breaks=(sol.lam,)) == pytest.approx(c.B ** 2, rel=1e-11)


def test_closed_form_shapes():
    # p = 1: constant B/A
    sol = solve_closed_form(ConstraintSet(1.0, 2.0, 1.0, "gabor"))
    assert sol.u(np.array([0.3, 1.9])) == pytest.approx([0.5, 0.5])
    # subcritical gabor: u = logmeno(t / sqrt 2)
    sol = solve_closed_form(ConstraintSet(2.0, math.inf, 1.0, "gabor"))
    ts = np.array([0.2, 1.0, 1.4, 2.0])
    assert sol.u(ts) == pytest.approx(np.maximum(-np.log(ts / math.sqrt(2)), 0.0))
    assert sol.lam == pytest.approx(math.sqrt(2))
    # subcritical wavelet: u = 4 pi ((t/lam)^{-1/3} - 1), continuous at lam
    c = ConstraintSet(2.0, math.inf, 1.0, "wavelet", beta=1.0)
    sol = solve_closed_form(c)
    lam = sol.lam
    inside = np.array([lam / 3, lam / 2])
    assert sol.u(inside) == pytest.approx(4 * math.pi * ((inside / lam) ** (-1 / 3) - 1))
    assert sol.u(np.array([lam * (1 - 1e-9)]))[0] == pytest.approx(0.0, abs=1e-6)
    assert sol.u(np.array([lam * 1.01]))[0] == 0.0


def test_oracle_matches_closed_form():
    for c in CASES:
        sol = solve_closed_form(c)
        orc = solve_kkt_oracle(c)
        upper = min(c.A, sol.lam)
        ts = np.geomspace(upper * 1e-6, upper * (1 - 1e-9), 400)
        assert np.max(np.abs(sol.u(ts) - orc.u(ts))) < 1e-8, c
        assert abs(sol.objective_value - orc.objective_value) < 1e-10, c
        assert abs(orc.constraint_value - c.B ** c.p) < 1e-10 * max(1.0, c.B ** c.p)
        assert sol.regime == orc.regime


def test_oracle_rejects_p1():
    with pytest.raises(RegimeError):
        solve_kkt_oracle(ConstraintSet(1.0, 1.0, 1.0, "gabor"))


def test_competitors_score_strictly_lower():
    rng = np.random.default_rng(23)
    for c in CASES[:4]:
        sol = solve_closed_form(c)
        for _ in range(50):
            _, obj = random_feasible_competitor(rng, c)
            assert obj < sol.objective_value


def test_saturation_and_objective_equals_bound():
    for c in CASES:
        sol = solve_closed_form(c)
        assert abs(sol.constraint_value - c.B ** c.p) < 1e-10 * max(1.0, c.B ** c.p)
        ref = gabor_bound(c) if c.transform == "gabor" else wavelet_bound(c)
        assert abs(sol.objective_value - ref.bound) < 1e-10


def test_pointwise_bound():
    for c in CASES:
        sol = solve_closed_form(c)
        upper = min(c.A, sol.lam) if sol.lam else c.A
        ts = np.geomspace(upper * 1e-5, upper * (1 - 1e-9), 200)
        assert np.all(sol.u(ts) <= c.B ** c.p / ts ** c.p + 1e-9)


def test_gprime_inverse_consistency():
    # (G')^{-1} really inverts the derivative of the kernel integrand; values
    # at or above G'(0) clamp to zero
    eps = 1e-7
    for kern in (GaborKernel(1), GaborKernel(2), WaveletKernel(1.0), WaveletKernel(0.5)):
        scale = kern.multiplier_scale()
        for frac in (0.1, 0.4, 0.9):
            y = frac * scale
            u = float(kern.gprime_inv(y))
            assert u > 0.0
            deriv = (float(kern.g(u + eps)) - float(kern.g(max(u - eps, 0.0)))) / (2 * eps)
            assert deriv == pytest.approx(y, rel=1e-5)
        assert kern.gprime_inv(np.array([scale, 2 * scale])) == pytest.approx([0.0, 0.0])


def test_kernel_for_dispatch():
    assert isinstance(kernel_for(ConstraintSet(2.0, 1.0, 1.0, "gabor", d=3)), GaborKernel)
    assert isinstance(kernel_for(ConstraintSet(2.0, 1.0, 1.0, "wavelet", beta=2.0)), WaveletKernel)


def test_objective_and_moment_accept_sampled_solutions():
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor")
    orc = solve_kkt_oracle(c)
    assert constraint_moment(orc.samples, c.p, c.A) == pytest.approx(
        orc.constraint_value, abs=0.0)
