"""Variational problem: closed forms against the multiplier oracle."""
import math

import numpy as np
import pytest

import phasebound.bounds
from phasebound import cli
from phasebound.bounds import G, G_beta, gabor_bound, wavelet_bound
from phasebound.errors import InvalidInputError, RegimeError
from phasebound.scalar import ConstraintSet, Disc, Plane
from phasebound.varprob import constraint_moment, solve_closed_form, solve_kkt_oracle
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
    # a truncated extremal with lam = 1.9e299: the panel rule's smallest nodes
    # lie where lam / t overflows
    c = ConstraintSet(13.431323509358915, 2.0829754084761296, 4.087540048714912, "gabor")
    sol = solve_closed_form(c)
    assert sol.lam == pytest.approx(1.9035717253935074e299)
    assert sol.constraint_value == pytest.approx(c.B ** c.p, rel=1e-12)
    assert sol.objective_value == pytest.approx(gabor_bound(c).bound, rel=1e-12)


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


SETTINGS = [(Plane(1), "gabor"), (Plane(2), "gabor"), (Disc(1.0), "wavelet"),
            (Disc(0.5), "wavelet")]


def test_gprime_inverse_consistency():
    # (G')^{-1} really inverts the derivative of the setting's ceiling; values
    # at or above G'(0) clamp to zero
    eps = 1e-7
    for setting, _ in SETTINGS:
        scale = setting.gprime_zero()
        for frac in (0.1, 0.4, 0.9):
            y = frac * scale
            u = float(setting.gprime_inv(y))
            assert u > 0.0
            deriv = (float(setting.g(u + eps)) - float(setting.g(max(u - eps, 0.0)))) / (2 * eps)
            assert deriv == pytest.approx(y, rel=1e-5)
        assert setting.gprime_inv(np.array([scale, 2 * scale])) == pytest.approx([0.0, 0.0])


def test_constraint_set_builds_its_setting():
    # the transform tag chooses the setting once; its bound is the tagged
    # closed form, bitwise, and its ceiling is G or G_beta
    s = np.array([0.0, 0.3, 2.0])
    for setting, transform in SETTINGS:
        if transform == "gabor":
            par, bound, ceiling = {"d": setting.d}, gabor_bound, G(s, setting.d)
        else:
            par, bound, ceiling = {"beta": setting.beta}, wavelet_bound, G_beta(s, setting.beta)
        for p, A, B in [(1.0, 1.0, 2.0), (2.0, math.inf, 1.0), (2.5, 1.0, 3.0)]:
            c = ConstraintSet(p, A, B, transform, **par)
            assert c.setting == setting and type(c.setting) is type(setting)
            assert c.setting.bound(c) == bound(c)
        assert np.array_equal(setting.g(s), ceiling)


def test_settings_check_their_parameter():
    # the d and beta checks moved from ConstraintSet into the settings
    for bad in (0, -1, 1.5):
        with pytest.raises(InvalidInputError, match="gabor constraints need integer d >= 1"):
            ConstraintSet(2.0, 1.0, 1.0, "gabor", d=bad)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="wavelet constraints need 0 < beta < inf"):
            ConstraintSet(2.0, 1.0, 1.0, "wavelet", beta=bad)


def test_bound_is_looked_up_through_bounds(monkeypatch, capsys):
    # the benchmark's tracer wraps bounds.gabor_bound in the module's
    # namespace; the CLI and the closed-form solver must reach that name
    calls = []
    original = phasebound.bounds.gabor_bound

    def spy(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(phasebound.bounds, "gabor_bound", spy)
    assert cli.main(["bound", "--p", "2", "--A", "1", "--B", "1"]) == cli.EXIT_OK
    assert len(calls) == 1 and calls[0].p == 2.0
    capsys.readouterr()
    c = ConstraintSet(2.0, 1.0, 1.5)
    solve_closed_form(c)
    assert calls[1:2] == [c]


def test_objective_and_moment_accept_sampled_solutions():
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor")
    orc = solve_kkt_oracle(c)
    assert constraint_moment(orc.samples, c.p, c.A) == pytest.approx(
        orc.constraint_value, abs=0.0)
