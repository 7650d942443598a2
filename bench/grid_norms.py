"""grid-norms: one op is one seeded signal and weight set, in three steps.

1. STFT of a random Hermite-coefficient signal on a 128^2 box.
2. A nonnegative 128^2 weight field: assemble_operator (K = 48) and its
   spectrum, lp_norm and gabor_bound at p = 1, 2, 3, and the top eigenvalue
   of its Schwarz symmetrization.
3. The wavelet transform of a random Hardy signal on a 256^2 logarithmic
   half-plane grid; |Wf|^2 as a weight, assembled with K = 24, its
   eigenvalues against wavelet_bound at p = 1, 2, 3.

None of these weights is radial, so no closed form exists: assembly and
the transforms carry the op.
"""
from __future__ import annotations

import math

import numpy as np

from common import Workload, bumps, rel_err

SETS = 6                    # distinct input sets per round
HALF_WIDTH, N_FIELD, K_FIELD = 6.0, 128, 48
N_HALF, K_HALF = 256, 24
PS = (1.0, 2.0, 3.0)

TOL_ISOMETRY = 1e-9   # midpoint STFT of low Hermite modes; measured error ~1e-12
TOL_EXACT = 1e-12     # phasebound's L^p norm and sup against the benchmark's sums
TOL_BOUND = 1e-10     # bound against the 30-digit reference
TOL_SPECTRAL = 1e-6   # assembly quadrature: eigenvalue inequalities hold to this


class GridNorms(Workload):
    name = "grid-norms"

    def setup(self, seed, workdir):
        import phasebound as pb
        rng = np.random.default_rng([seed, 2])
        self.x_edges = np.linspace(-8.0, 8.0, N_HALF + 1)
        self.y_edges = np.geomspace(0.02, 50.0, N_HALF + 1)
        self.grid = pb.HalfPlaneGrid(self.x_edges, self.y_edges)
        self.sets = []
        for _ in range(SETS):
            coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
            field = bumps(rng, N_FIELD, HALF_WIDTH)
            hardy = rng.normal(size=4) + 1j * rng.normal(size=4)
            beta = float(rng.uniform(1.0, 3.0))
            self.sets.append({
                "coeffs": coeffs, "field": field, "beta": beta,
                "signal": pb.Signal.from_hermite(coeffs),
                "weight": pb.WeightField(HALF_WIDTH, N_FIELD, field.astype(complex)),
                "hardy": pb.HardySignal.from_disc_coeffs(hardy, beta),
            })
        self.round_len = SETS

    def references(self):
        import refs
        cell_area = (2 * HALF_WIDTH / N_FIELD) ** 2
        self.hp_masses = np.outer(np.diff(self.x_edges),
                                  1.0 / self.y_edges[:-1] - 1.0 / self.y_edges[1:])
        for s in self.sets:
            f = s["field"].ravel()
            s["ref_energy"] = float(np.sum(np.abs(s["coeffs"]) ** 2))
            s["ref_sup"] = float(f.max())
            s["ref_norm"] = {p: float(np.sum(f ** p * cell_area) ** (1 / p)) for p in PS}
            s["ref_bound"] = {p: refs.gabor(p, s["ref_sup"], s["ref_norm"][p], 1) for p in PS}
            # for d = 1 this is also lam0 of the Schwarz symmetrization:
            # sum_k v_k (e^{-S_{k-1}} - e^{-S_k}) after summation by parts
            s["ref_dist"] = refs.distribution_bound(f, np.full(f.size, cell_area),
                                                    lambda m: -np.expm1(-m))

    def run_op(self, i):
        import phasebound as pb
        from phasebound import gabor, wavelet
        s = self.sets[i]
        out = {}
        vf = pb.stft(s["signal"], HALF_WIDTH, N_FIELD)
        out["energy"] = float(np.sum(np.abs(vf.values) ** 2) * vf.cell_area)

        F = s["weight"]
        spec = gabor.spectrum_from_matrix(pb.assemble_operator(F, K_FIELD))
        out["eigs"] = spec.eigenvalues
        out["sup"] = F.ess_sup()
        out["norm"] = {p: pb.lp_norm(F, p) for p in PS}
        out["bound"] = {p: pb.gabor_bound(pb.ConstraintSet(p, out["sup"], out["norm"][p]))
                        for p in PS}
        star = pb.schwarz_symmetrize(F)
        out["star_top"] = pb.radial_eigenvalues(star, 1).eigenvalues[0]

        beta = s["beta"]
        wf = pb.wavelet_transform(s["hardy"], beta, self.grid)
        Fw = pb.HalfPlaneField(self.grid, np.abs(wf.values) ** 2)
        out["w_values"] = Fw.values.real
        out["w_eigs"] = np.linalg.eigvalsh(pb.assemble_wavelet_operator(Fw, beta, K_HALF))
        sup_w = Fw.ess_sup()
        out["w_bound"] = {p: pb.wavelet_bound(pb.ConstraintSet(
            p, sup_w, wavelet.lp_norm_nu(Fw, p), "wavelet", beta=beta)) for p in PS}
        return out

    def check(self, i, out):
        import refs
        s = self.sets[i]
        fails = []
        if not rel_err(out["energy"], s["ref_energy"]) <= TOL_ISOMETRY:
            fails.append("STFT isometry")

        A = s["ref_sup"]
        eigs = out["eigs"]
        norm = float(np.max(np.abs(eigs)))
        if not (rel_err(out["sup"], A) <= TOL_EXACT
                and all(rel_err(out["norm"][p], s["ref_norm"][p]) <= TOL_EXACT for p in PS)):
            fails.append("sup and L^p norms")
        if not (eigs.min() >= -TOL_SPECTRAL * A and eigs.max() <= A * (1 + TOL_SPECTRAL)):
            fails.append("eigenvalues in [0, sup F]")
        for p in PS:
            regime, ref = s["ref_bound"][p]
            rep = out["bound"][p]
            if rep.regime != regime or not rel_err(rep.bound, ref) <= TOL_BOUND:
                fails.append(f"gabor_bound p={p:g} vs reference")
            if not norm <= ref * (1 + TOL_SPECTRAL):
                fails.append(f"norm <= sharp bound p={p:g}")
        if not norm <= s["ref_dist"] * (1 + TOL_SPECTRAL):
            fails.append("norm <= distribution bound")
        if not rel_err(out["star_top"], s["ref_dist"]) <= TOL_BOUND:
            fails.append("Schwarz symmetrization lam0")
        if not norm <= out["star_top"] * (1 + TOL_SPECTRAL):
            fails.append("norm <= symmetrized lam0")

        # wavelet field: references from the transform's values, after the op
        beta = s["beta"]
        w = out["w_values"]
        if not (np.all(np.isfinite(w)) and w.min() >= 0):
            fails.append("|Wf|^2 finite and nonnegative")
            return fails
        wv, masses = w.ravel(), self.hp_masses.ravel()
        A_w = float(wv.max())
        w_eigs = out["w_eigs"]
        w_norm = float(np.max(np.abs(w_eigs)))
        if not (w_eigs.min() >= -TOL_SPECTRAL * A_w and w_eigs.max() <= A_w * (1 + TOL_SPECTRAL)):
            fails.append("wavelet eigenvalues in [0, sup F]")
        for p in PS:
            B_w = float(np.sum(wv ** p * masses) ** (1 / p))
            regime, ref = refs.wavelet(p, A_w, B_w, beta)
            rep = out["w_bound"][p]
            if rep.regime != regime or not rel_err(rep.bound, ref) <= TOL_BOUND:
                fails.append(f"wavelet_bound p={p:g} vs reference")
            if not w_norm <= ref * (1 + TOL_SPECTRAL):
                fails.append(f"wavelet norm <= sharp bound p={p:g}")
        dist = refs.distribution_bound(wv, masses,
                                       lambda m: 1 - (1 + m / (4 * math.pi)) ** (-2 * beta))
        if not w_norm <= dist * (1 + TOL_SPECTRAL):
            fails.append("wavelet norm <= distribution bound")
        return fails
