"""verify-all: one op is verify.run_suite("all", seed, basis=48), in process.

This is the only workload that runs the independent oracles: the KKT
multiplier bisection, quadrature eigenvalues, the polar radial assembly,
the windowed half-plane isometry and the STFT at n = 512.  The benchmark
does not trust each detail's ``ok``: it checks that the check names are
exactly the expected ones and recomputes error <= tolerance itself.
"""
from __future__ import annotations

import numpy as np

from common import Workload

BASIS = 48
SEEDS_PER_RUN = 8

# verify seeds the ops draw from: 0..39 without the nine seeds on which the
# gabor check "norm(K) vs norm(2K) within tail" fails (error up to 0.15
# against a tolerance of 0).  The tail estimate is a heuristic, not a bound;
# CHANGES.md records the fault.  A seed that fails only sometimes would make
# the failed count depend on the workload seed, so those seeds are left out.
FAILING_SEEDS = (5, 16, 17, 18, 20, 21, 27, 30, 33)
SEED_POOL = tuple(s for s in range(40) if s not in FAILING_SEEDS)

EXPECTED = {
    "bounds": (
        "G(0,d)=0", "G(1,1)", "G(2,2) pinned", "G_beta(1,1) pinned",
        "G(.,1) increasing/concave/<=s/limit", "G(.,2) increasing/concave/<=s/limit",
        "G(.,3) increasing/concave/<=s/limit", "G_beta increasing/concave/<=s/limit",
        "gabor regime continuity", "wavelet regime continuity",
        "d=1 closed form vs quadrature", "boundary lambda = A",
        "bound monotone in B and A", "bound <= min(A, kappa^{d kappa} B)"),
    "rearrange": (
        "rearrangement moment inequality", "rearrangement preserves L^p", "fixed point",
        "square -> ball radius", "symmetrization preserves distribution",
        "distribution vs sort oracle", "ball L1 = A*s", "gaussian L2 = amp/sqrt(2)",
        "extremal truncated L2 = B", "gaussian distribution closed form"),
    "varprob": (
        "oracle pointwise vs closed form", "oracle objective vs closed form",
        "constraint saturation", "objective equals bound",
        "competitors strictly below maximizer", "monotonicity removal",
        "pointwise bound B^p/t^p"),
    "gabor": (
        "ball indicator norm", "gaussian extremal saturation",
        "truncated extremal saturation", "truncated quadrature eigenvalues",
        "radial assembly off-diagonal", "radial assembly diagonal",
        "0 <= lam_k <= sup F, nonincreasing", "norm <= distribution bound (random fields)",
        "norm <= symmetrized norm", "distribution bound equality (radial)",
        "norm(K) vs norm(2K) within tail", "concentration on unit-area ball",
        "square strictly below ball", "empty region", "window phase-space L^p",
        "h1 strictly below the ceiling", "transform isometry (grid quadrature)",
        "pulse covariance peak location", "matched signal saturates",
        "mismatched signal falls short"),
    "wavelet": (
        "wavelet normalization", "c_1^2 = pi/2", "disc indicator identity",
        "transform vs closed-form basis", "transform isometry (windowed)",
        "disc mask measure", "mask boundary matches threshold",
        "disc assembly top eigenvalue", "disc assembly off-diagonal",
        "extremal saturation (Beta integrals)", "nu distribution bound equality (radial)",
        "norm <= wavelet bound (radial symbols)", "Moebius recentering eigenvalues",
        "matched wavelet pair saturates"),
}


class VerifyAll(Workload):
    name = "verify-all"

    def setup(self, seed, workdir):
        import phasebound.verify  # noqa: F401
        rng = np.random.default_rng([seed, 4])
        self.seeds = [int(s) for s in rng.choice(SEED_POOL, SEEDS_PER_RUN, replace=False)]
        self.op = 0
        self.round_len = 1

    def run_op(self, i):
        from phasebound import verify
        seed = self.seeds[self.op % len(self.seeds)]
        self.op += 1
        return verify.run_suite("all", seed, basis=BASIS)

    def check(self, i, summaries):
        fails = []
        if [s["suite"] for s in summaries] != list(EXPECTED):
            return ["suite list"]
        for s in summaries:
            names = [d["name"] for d in s["details"]]
            if sorted(names) != sorted(EXPECTED[s["suite"]]):
                fails.append(f"{s['suite']}: check names")
            for d in s["details"]:
                if "error" in d:
                    ok = float(d["error"]) <= float(d["tolerance"])
                else:
                    ok = d["ok"] is True
                if not ok:
                    fails.append(f"{s['suite']}: {d['name']}")
        return fails
