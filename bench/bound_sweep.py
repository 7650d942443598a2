"""bound-sweep: one op is one constraint tuple through the product path.

Each op runs gabor_bound or wavelet_bound, the extremal weight, its L^p
norm and, where a spectrum exists (gabor d = 1, wavelet), the top
eigenvalue.  A round holds ROUND tuples in fixed numbers per class, so
every seed gives the same mix of fast closed forms and slow bisections,
plus the four fixed tuples of the three known faults.
"""
from __future__ import annotations

import math

import numpy as np

from common import Workload, loguniform, rel_err

# Seeded tuples keep the critical ratio (B/A)^p / threshold below this, so
# the extremal's peak level stays far inside double range (for gabor d = 1,
# p log(lam/A) = ratio - 1).  Larger ratios hit the overflow faults that
# FAULTS and the FOUND notes in CHANGES.md describe.
MAX_RATIO = 500.0
# Wavelet truncated tuples keep the Beta tail (A/lam)^{2 beta alpha + 1}
# above this; below it the 1 - betainc cancellation of fault 3 appears.
MIN_BETA_TAIL = 1e-4

# class -> count per round.  The slow classes (gabor d >= 2 truncated,
# bisection over adaptive quad) are 24 of the 84 ops: op_ms.p50 falls in
# the middle of the fast wavelet closed forms and op_ms.p90 in the middle
# of the slow ones, both well away from where the closed forms end (58 of
# 84).
ROUND = [
    ("gabor-ball", 8), ("gabor-gaussian", 10), ("gabor-truncated-d1", 8),
    ("wavelet-ball", 10), ("wavelet-gaussian", 10), ("wavelet-truncated", 10),
    ("gabor-truncated-d2", 12), ("gabor-truncated-d3", 12),
]
# slow tuples sit one per cell of a fixed grid over (log p, log ratio), so
# every seed has the same spread of bisection costs and only jitters
# within the cells; p runs over [1.1, 6], where every ratio cell is feasible
SLOW_P = (1.1, 6.0)

# (transform, p, A, B, d or beta, fault) -- the three known faults
FAULTS = [
    ("gabor", 1.001, 1.0, 2.0, 2, "1: bound = A once lam overflows (true 0.59418)"),
    ("gabor", 1.001, 1.0, 2.0, 3, "1: bound = A once lam overflows (true 0.40130)"),
    ("gabor", 1.001, 1.0, 2.0, 1, "2: truncated_gaussian(amplitude=inf), NaN norm and spectrum"),
    ("wavelet", 1.01, 1.0, 2.0, 1.0, "3: 1 - betainc cancels, lam0 = 0.25225 vs 0.25720"),
]

REL_TOL_BOUND = 1e-10   # bound, L^p norm and lam0 against the 30-digit reference
REL_TOL_SUP = 1e-12     # the extremal's sup against A
K_SPECTRUM = 8


def _threshold(transform, p, par):
    kappa = (p - 1.0) / p
    if transform == "gabor":
        return kappa ** par
    return 4.0 * math.pi * (p - 1.0) / (2.0 * par * p + 1.0)


def _beta_tail(p, ratio_pow, beta):
    """(A/lam)^{2 beta alpha + 1} of the wavelet truncated extremal, A = 1."""
    alpha = (p - 1.0) / (2.0 * beta + 1.0)
    lam_alpha = (ratio_pow / (4.0 * math.pi) + 1.0) * (p - alpha) / p
    return lam_alpha ** -(2.0 * beta + 1.0 / alpha)


def _draw_slow(rng, d, cell, n):
    """Gabor truncated tuple in cell (cell, perm(cell)) of an n x n grid."""
    lo, hi = math.log(SLOW_P[0]), math.log(SLOW_P[1])
    p = math.exp(lo + (cell + rng.uniform()) / n * (hi - lo))
    thr = _threshold("gabor", p, d)
    r_lo = math.log(max(1.2, 0.1 ** p / thr))
    r_hi = math.log(min(MAX_RATIO, 10.0 ** p / thr))
    ratio_cell = (7 * cell + 3) % n   # a fixed shuffle: 7 is prime to n = 12
    ratio = math.exp(r_lo + (ratio_cell + rng.uniform()) / n * (r_hi - r_lo))
    A = loguniform(rng, 0.5, 2.0)
    return ("gabor", p, A, A * (ratio * thr) ** (1.0 / p), d)


def _draw(rng, cls, stratum, n):
    """One fast tuple of class cls; stratum i of n spreads p over [1.001, 6].

    Draws outside the sampled box (B/A in [0.1, 10], the regime's ratio
    range, the Beta tail floor) are redrawn within the same stratum.
    """
    A = loguniform(rng, 0.5, 2.0)
    transform = "wavelet" if cls.startswith("wavelet") else "gabor"
    if cls.endswith("ball"):
        par = loguniform(rng, 0.5, 5.0) if transform == "wavelet" else stratum % 3 + 1
        return (transform, 1.0, A, A * loguniform(rng, 0.1, 10.0), par)
    for _ in range(10000):
        u = (stratum + rng.uniform()) / n
        p = math.exp(u * math.log(6.0 / 1.001)) * 1.001
        par = (loguniform(rng, 0.5, 5.0) if transform == "wavelet"
               else 1 if cls.endswith("d1") else stratum % 3 + 1)
        thr = _threshold(transform, p, par)
        if cls.endswith("gaussian"):
            hi = min(10.0, 0.9 * thr ** (1.0 / p))
            if hi > 0.11:
                return (transform, p, A, A * loguniform(rng, 0.1, hi), par)
            continue
        ratio = loguniform(rng, 1.2, MAX_RATIO)
        ba = (ratio * thr) ** (1.0 / p)
        if 0.1 <= ba <= 10.0 and (transform == "gabor"
                                  or _beta_tail(p, ba ** p, par) >= MIN_BETA_TAIL):
            return (transform, p, A, A * ba, par)
    raise RuntimeError(f"no {cls} tuple in stratum {stratum} of {n}")


class BoundSweep(Workload):
    name = "bound-sweep"

    def setup(self, seed, workdir):
        from phasebound import ConstraintSet
        rng = np.random.default_rng([seed, 1])
        self.tuples = []
        for cls, count in ROUND:
            for i in range(count):
                if cls in ("gabor-truncated-d2", "gabor-truncated-d3"):
                    t = _draw_slow(rng, int(cls[-1]), i, count)
                else:
                    t = _draw(rng, cls, i, count)
                self.tuples.append(t + (None,))
        self.known_faults = frozenset(range(len(self.tuples), len(self.tuples) + len(FAULTS)))
        self.tuples += FAULTS
        self.constraints = [
            ConstraintSet(p, A, B, tr, d=par) if tr == "gabor"
            else ConstraintSet(p, A, B, tr, beta=par)
            for tr, p, A, B, par, _ in self.tuples]
        self.round_len = len(self.tuples)

    def references(self):
        import refs
        self.refs = []
        for tr, p, A, B, par, _ in self.tuples:
            regime, bound = (refs.gabor if tr == "gabor" else refs.wavelet)(p, A, B, par)
            cap = (refs.gaussian_cap(p, B, par) if tr == "gabor"
                   else refs.wavelet_gaussian_cap(p, B, par))
            self.refs.append((regime, bound, cap))

    def run_op(self, i):
        import phasebound as pb
        c = self.constraints[i]
        if c.transform == "gabor":
            report = pb.gabor_bound(c)
            weight = pb.extremal_weight_gabor(c)
            norm = pb.lp_norm(weight, c.p)
            lam0 = (pb.radial_eigenvalues(weight, K_SPECTRUM).eigenvalues[0]
                    if c.d == 1 else None)
        else:
            report = pb.wavelet_bound(c)
            weight = pb.extremal_weight_wavelet(c)
            norm = weight.lp_norm(c.p)
            lam0 = pb.bergman_radial_eigenvalues(weight, c.beta, K_SPECTRUM).eigenvalues[0]
        return {"regime": report.regime, "bound": report.bound, "sup": weight.ess_sup(),
                "norm": norm, "lam0": lam0}

    def check(self, i, out):
        tr, p, A, B, par, _ = self.tuples[i]
        regime, ref, cap = self.refs[i]
        fails = []
        if out["regime"] != regime:
            fails.append("regime")
        if not rel_err(out["bound"], ref) <= REL_TOL_BOUND:
            fails.append("bound vs reference")
        if not out["bound"] <= min(A, cap) * (1 + REL_TOL_SUP):
            fails.append("bound <= min(A, cap)")
        if regime == "gaussian":
            if not out["sup"] <= A * (1 + REL_TOL_SUP):
                fails.append("sup <= A")
        elif not rel_err(out["sup"], A) <= REL_TOL_SUP:
            fails.append("sup = A")
        if not rel_err(out["norm"], B) <= REL_TOL_BOUND:
            fails.append("L^p norm = B")
        if out["lam0"] is not None and not rel_err(out["lam0"], ref) <= REL_TOL_BOUND:
            fails.append("lam0 = bound")
        return fails
