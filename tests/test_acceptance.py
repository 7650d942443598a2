"""Acceptance criteria: sharpness, optimality and regime checks end to end.

Each test prints one PASS/FAIL line with the measured error against the
stated tolerance (run pytest with -s to see them when everything passes).
All expected values are closed forms or were pinned with 40-digit
arithmetic before the implementation was written.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from phasebound.bounds import G, G_beta, gabor_bound, lambda_root, wavelet_bound
from phasebound.core import RadialProfile, distribution_bound, schwarz_symmetrize
from phasebound.extremals import extremal_weight_gabor, extremal_weight_wavelet
from phasebound.gabor import (Signal, assemble_operator, lieb_quotient,
                              operator_norm, radial_eigenvalues,
                              radial_eigenvalues_quad)
from phasebound.scalar import ConstraintSet
from phasebound.varprob import solve_closed_form, solve_kkt_oracle
from phasebound.verify import random_feasible_competitor, random_field, run_suite, verify_gabor
from phasebound.wavelet import (DiscProfile, HalfPlaneGrid, assemble_wavelet_operator,
                                bergman_radial_eigenvalues)

LAMBDA_D2 = 2.2770384097861832   # e^{(sqrt 7 - 1)/2}
BOUND_D2 = 0.4899348984301024    # pinned by 40-digit quadrature pre-build


def report(criterion: str, err: float, tol: float) -> None:
    status = "PASS" if err <= tol else "FAIL"
    print(f"[{status}] {criterion}: error {err:.3e} (tolerance {tol:.0e})")
    assert err <= tol, f"{criterion}: {err:.3e} > {tol:.0e}"


def test_criterion_1_ball_sharpness():
    # warm the quadrature-rule caches so the timer sees the operation only
    assemble_operator(RadialProfile.ball(1.0, 0.5), 4)
    t0 = time.perf_counter()
    M = assemble_operator(RadialProfile.ball(1.0, 1.0), 32)
    norm = operator_norm(M)
    elapsed = time.perf_counter() - t0
    report("1 ball sharpness (Hermite diagonalization, K=32)",
           abs(norm - (1 - math.exp(-1))), 1e-6)
    print(f"       runtime {elapsed:.3f}s (budget 1s)")
    assert elapsed < 1.0


def test_criterion_2_gaussian_sharpness():
    lam0 = radial_eigenvalues(
        RadialProfile.gaussian(math.sqrt(2), 1.0), 4).eigenvalues[0]
    report("2a gaussian extremal lambda_0 = 2^{-1/2}", abs(lam0 - 2 ** -0.5), 1e-8)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        c = ConstraintSet(p, math.inf, 1.0, "gabor")
        lam0 = radial_eigenvalues(extremal_weight_gabor(c), 4).eigenvalues[0]
        kappa = (p - 1) / p
        worst = max(worst, abs(lam0 - kappa ** kappa),
                    abs(gabor_bound(c).bound - kappa ** kappa))
    report("2b bound = kappa^kappa B for p in {1.5, 2, 3}", worst, 1e-8)


def test_criterion_3_truncated_sharpness():
    prof = RadialProfile.truncated_gaussian(math.exp(0.5), 1.0, 1.0)
    lam0 = radial_eigenvalues(prof, 4).eigenvalues[0]
    report("3a truncated extremal lambda_0 closed form",
           abs(lam0 - (1 - math.exp(-0.5) / 2)), 1e-8)

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        p = float(rng.uniform(1.2, 3.5))
        A = float(rng.uniform(0.5, 2.0))
        kappa = (p - 1) / p
        B = A * (float(rng.uniform(1.1, 4.0)) * kappa) ** (1 / p)
        c = ConstraintSet(p, A, B, "gabor")
        assert gabor_bound(c).regime == "truncated"
        w = extremal_weight_gabor(c)
        lam0 = radial_eigenvalues_quad(w, 4).eigenvalues[0]
        worst = max(worst, abs(lam0 - gabor_bound(c).bound))
    report("3b ten random supercritical triples (quadrature eigenvalues)",
           worst, 1e-6)


def test_criterion_4_regime_continuity():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 10.0):
        for d in (1, 2, 3):
            kappa = (p - 1) / p
            gaussian = kappa ** (d * kappa) * kappa ** (d / p)
            # at lam = A the truncated extremal is the uncapped Gaussian
            truncated = distribution_bound(RadialProfile.gaussian(1.0, p - 1.0, dim=d),
                                           lambda s: G(s, d))
            worst = max(worst, abs(gaussian - truncated))
        for beta in (0.5, 1.0, 2.0, 5.0):
            sigma = (p - 1) / (2 * beta * p + 1)
            alpha = (p - 1) / (2 * beta + 1)
            B = (4 * math.pi * sigma) ** (1 / p)
            gaussian = 2 * beta / (4 * math.pi) ** (1 / p) * sigma ** ((p - 1) / p) * B
            truncated = 1 - p ** (2 * beta) * (sigma / alpha) ** (2 * beta + 1) \
                * (1 + B ** p / (4 * math.pi)) ** (-2 * beta)
            worst = max(worst, abs(gaussian - truncated),
                        abs(gaussian - 2 * beta * sigma))
    elapsed = time.perf_counter() - t0
    report("4 regime-boundary continuity (gabor and wavelet)", worst, 1e-12)
    print(f"       runtime {elapsed:.3f}s (budget 0.1s)")
    assert elapsed < 0.1


def test_criterion_5_variational_optimality():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(10):
        p = float(rng.uniform(1.2, 3.5))
        A = float(rng.uniform(0.6, 2.0)) if rng.uniform() < 0.7 else math.inf
        B = float(rng.uniform(0.4, 1.8))
        d = int(rng.integers(1, 4))
        cases.append(ConstraintSet(p, A, B, "gabor", d=d))
    for _ in range(10):
        p = float(rng.uniform(1.2, 3.5))
        A = float(rng.uniform(0.6, 2.0)) if rng.uniform() < 0.7 else math.inf
        B = float(rng.uniform(0.4, 1.8))
        beta = float(rng.uniform(0.4, 2.5))
        cases.append(ConstraintSet(p, A, B, "wavelet", beta=beta))

    worst_pw = worst_obj = 0.0
    min_margin = math.inf
    for c in cases:
        sol = solve_closed_form(c)
        orc = solve_kkt_oracle(c)
        upper = min(c.A, sol.lam)
        ts = np.geomspace(upper * 1e-6, upper * (1 - 1e-9), 400)
        worst_pw = max(worst_pw, float(np.max(np.abs(sol.u(ts) - orc.u(ts)))))
        worst_obj = max(worst_obj, abs(sol.objective_value - orc.objective_value))
        for _ in range(50):
            _, obj = random_feasible_competitor(rng, c)
            min_margin = min(min_margin, sol.objective_value - obj)
    report("5a oracle matches maximizer pointwise (20 sets, both kernels)",
           worst_pw, 1e-8)
    report("5b oracle objective matches", worst_obj, 1e-10)
    print(f"       minimum competitor margin {min_margin:.3e} (must be > 0, "
          f"1000 competitors)")
    assert min_margin > 0.0


def test_criterion_6_distribution_bound_and_symmetrization():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst_db = worst_sym = -math.inf
    for _ in range(25):
        f = random_field(rng, half_width=6.0, n=128)
        norm = operator_norm(assemble_operator(f, 48))
        worst_db = max(worst_db, norm - distribution_bound(f, G))
        star_top = radial_eigenvalues(schwarz_symmetrize(f), 1).eigenvalues[0]
        worst_sym = max(worst_sym, norm - star_top)
    # equality case: radial nonincreasing weights, two independent routes
    worst_eq = 0.0
    for prof in (RadialProfile.ball(1.0, 2.0),
                 RadialProfile.gaussian(1.2, 0.9),
                 RadialProfile.truncated_gaussian(1.8, 1.1, 1.2)):
        norm = operator_norm(assemble_operator(prof, 48))
        worst_eq = max(worst_eq, abs(norm - distribution_bound(prof, G)))
    elapsed = time.perf_counter() - t0
    report("6a norm <= distribution bound (25 random 128^2 fields, K=48)",
           max(worst_db, 0.0), 1e-6)
    report("6b norm <= symmetrized norm", max(worst_sym, 0.0), 1e-6)
    report("6c distribution-bound equality for radial nonincreasing weights",
           worst_eq, 1e-4)
    print(f"       runtime {elapsed:.1f}s (budget 60s)")
    assert elapsed < 60.0


def test_criterion_7_lieb_recovery():
    phi = Signal.gaussian_pulse(0.0, 0.0)
    worst = max(abs(lieb_quotient(phi, p) - (2 / p) ** (1 / p)) for p in (2, 4, 8))
    report("7 phase-space L^p norms of the window", worst, 1e-4)
    h1 = Signal.from_hermite([0.0, 1.0])
    gap = (2 / 4) ** 0.25 - lieb_quotient(h1, 4)
    print(f"       first Hermite falls short by {gap:.4f} (must be > 0)")
    assert gap > 1e-3


def test_criterion_8_wavelet_sharpness():
    worst = 0.0
    for beta in (0.5, 1.0, 2.0, 5.0):
        for s in np.geomspace(0.05, 50.0, 20):
            lam0 = bergman_radial_eigenvalues(
                DiscProfile.indicator(1.0, float(s)), beta, 2).eigenvalues[0]
            worst = max(worst, abs(lam0 - G_beta(float(s), beta)))
    report("8a disc-indicator identity (Beta integral)", worst, 1e-12)

    disc = DiscProfile.indicator(1.0, 1.0)
    r2 = disc.edge
    yc, rad = (1 + r2) / (1 - r2), 2 * math.sqrt(r2) / (1 - r2)
    grid = HalfPlaneGrid.logarithmic(-1.3 * rad, 1.3 * rad, 256,
                                     (yc - rad) * 0.75, (yc + rad) * 1.3, 256)
    M = assemble_wavelet_operator(disc.on_grid(grid), 1.0, 12)
    top = float(np.sort(np.linalg.eigvalsh(M))[-1])
    report("8b disc indicator via 256x256 half-plane assembly",
           abs(top - G_beta(1.0, 1.0)), 1e-3)

    worst = 0.0
    for (p, beta) in ((2.0, 1.0), (3.0, 0.5), (1.0, 2.0)):
        c = ConstraintSet(p, 1.0, 0.8, "wavelet", beta=beta)
        w = extremal_weight_wavelet(c)
        lam0 = bergman_radial_eigenvalues(w, beta, 8).eigenvalues[0]
        worst = max(worst, abs(lam0 - wavelet_bound(c).bound))
    report("8c extremal saturation via Beta integrals", worst, 1e-10)


def test_criterion_9_general_dimension():
    c = ConstraintSet(2.0, 1.0, 1.0, "gabor", d=2)
    lam = lambda_root(c)
    report("9a d=2 closed-form root vs hand-derived e^{(sqrt 7 - 1)/2}",
           abs(lam - LAMBDA_D2), 1e-10)
    rep = gabor_bound(c)
    report("9b d=2 bound regression against the pinned value",
           abs(rep.bound - BOUND_D2), 1e-8)
    # independent quadrature of the bound integral at the analytic root
    val, _ = quad(lambda t: G((math.log(LAMBDA_D2 / t)) ** 2 / 2.0, 2), 0.0, 1.0,
                  epsabs=1e-13)
    report("9c bound integral re-derived at the analytic root",
           abs(val - BOUND_D2), 1e-10)


def test_verify_suite_all_passes():
    # the whole trust check, as `phasebound verify --suite all --seed 0` runs it
    summaries = run_suite("all", seed=0, basis=48)
    failed = [(s["suite"], d["name"]) for s in summaries for d in s["details"] if not d["ok"]]
    assert not failed, failed


@pytest.mark.parametrize("seed", [16, 30])
def test_verify_gabor_passes_where_the_tail_was_guessed(seed):
    # norm(K) vs norm(2K) failed here, by up to 0.155 at seed 16, while the
    # tail was extrapolated from the last two eigenvalues; the upper end is
    # now the proven int G(mu_|F|), and norm(2K) stays below it
    summary = verify_gabor(seed=seed)
    failed = [d["name"] for d in summary["details"] if not d["ok"]]
    assert not failed, failed
    tail, = (d for d in summary["details"] if d["name"] == "norm(K) vs norm(2K) within tail")
    assert tail["tolerance"] == 0.0 and tail["error"] < 0.0


def test_verify_details_carry_time_and_margin():
    # each detail has the CPU time since the previous record; a check with a
    # positive tolerance also has its margin, error / tolerance
    t0 = time.process_time()
    summary, = run_suite("rearrange", seed=1)
    spent_ms = 1e3 * (time.process_time() - t0)
    details = summary["details"]
    assert all(d["elapsed_ms"] >= 0.0 for d in details)
    assert sum(d["elapsed_ms"] for d in details) <= spent_ms + 1e-6
    checks = [d for d in details if "error" in d]
    assert any(d["tolerance"] > 0 for d in checks) and any(d["tolerance"] == 0 for d in checks)
    for d in details:
        if d.get("tolerance", 0.0) > 0:
            assert d["margin"] == d["error"] / d["tolerance"]
        else:
            assert "margin" not in d
