"""cli-cold: one op is one fresh ``python -m phasebound.cli`` process.

The ops cycle through six commands, all with ``--format json``:
``bound`` for gabor d = 1, gabor d = 3 and wavelet; ``extremal --out``
and then ``norm`` on the file it wrote; ``norm`` on a 128^2 field CSV the
benchmark writes at set-up.  A shell user pays for interpreter start and
imports on every call, and only a cold process shows it.
"""
from __future__ import annotations

import csv
import json
import math
import os
import shutil
import sys
import time

import numpy as np

from common import (BENCH, Workload, bumps, child_env, children_cpu, loguniform,
                    rel_err, run_child)

HALF_WIDTH, N_FIELD, BASIS = 6.0, 128, 48
TOL_BOUND = 1e-10      # printed bounds against the 30-digit reference
TOL_SUP = 1e-12
TOL_SPECTRAL = 1e-6    # field assembly: norm <= bound holds to this
# The extremal CSV samples the profile at 512 radii as left-continuous
# steps, so its own sharp bound sits a little above its lam0: measured
# 1 - norm/bound ~ 1e-3 at 512 samples.  The ratio must lie in
# [1 - TOL_SAMPLED, 1].
TOL_SAMPLED = 5e-3


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in r] for r in rows[1:] if r])


class CliCold(Workload):
    name = "cli-cold"
    in_process = False

    @staticmethod
    def clock():
        """CPU of the children that ran phasebound, plus the spawning."""
        return children_cpu() + time.process_time()

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.field_csv = os.path.join(workdir, "field.csv")
        self.extremal_csv = os.path.join(workdir, "extremal.csv")

        ax = -HALF_WIDTH + (np.arange(N_FIELD) + 0.5) * (2 * HALF_WIDTH / N_FIELD)
        field = bumps(rng, N_FIELD, HALF_WIDTH)
        with open(self.field_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "omega", "re", "im"])
            for i in range(N_FIELD):
                for j in range(N_FIELD):
                    w.writerow([repr(float(ax[i])), repr(float(ax[j])),
                                repr(float(field[i, j])), "0.0"])
        self.field = field

        # (transform, p, A, B, d or beta) for the three bound commands and
        # the extremal; d = 3 is truncated, so it runs the level root-finder
        def uniform(lo, hi):
            return float(rng.uniform(lo, hi))

        p3 = uniform(2.0, 3.0)
        kappa3 = ((p3 - 1) / p3) ** 3
        A3 = loguniform(rng, 0.5, 2.0)
        self.tuples = [
            ("gabor", uniform(1.5, 4.0), 1.0, loguniform(rng, 0.5, 3.0), 1),
            ("gabor", p3, A3, A3 * (loguniform(rng, 2.0, 20.0) * kappa3) ** (1 / p3), 3),
            ("wavelet", uniform(1.5, 4.0), 1.0, loguniform(rng, 0.5, 3.0), uniform(0.5, 3.0)),
            ("gabor", uniform(1.5, 3.0), 1.0, uniform(1.0, 2.0), 1),
        ]
        self.p_field = 2.0
        self.round_len = 6
        self.traces = []
        self.sampled_refs = {}

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def argv(self, i):
        if i < 4:
            tr, p, A, B, par = self.tuples[i]
            args = ["bound" if i < 3 else "extremal", "--transform", tr,
                    "--p", repr(p), "--A", repr(A), "--B", repr(B)]
            args += ["--d", str(par)] if tr == "gabor" else ["--beta", repr(par)]
            if i == 3:
                args += ["--out", self.extremal_csv]
        elif i == 4:
            args = ["norm", "--weight", self.extremal_csv, "--p", repr(self.tuples[3][1]),
                    "--basis", str(BASIS)]
        else:
            args = ["norm", "--weight", self.field_csv, "--p", repr(self.p_field),
                    "--basis", str(BASIS)]
        return args + ["--format", "json"]

    def references(self):
        import refs
        self.refs = []
        for tr, p, A, B, par in self.tuples:
            regime, bound = (refs.gabor if tr == "gabor" else refs.wavelet)(p, A, B, par)
            cap = (refs.gaussian_cap(p, B, par) if tr == "gabor"
                   else refs.wavelet_gaussian_cap(p, B, par))
            self.refs.append((regime, bound, cap))
        cell_area = (2 * HALF_WIDTH / N_FIELD) ** 2
        f = self.field.ravel()
        self.field_A = float(f.max())
        self.field_B = float(np.sum(f ** self.p_field * cell_area) ** (1 / self.p_field))
        self.field_bound = refs.gabor(self.p_field, self.field_A, self.field_B, 1)[1]
        self.field_dist = refs.distribution_bound(f, np.full(f.size, cell_area),
                                                  lambda m: -np.expm1(-m))

    def run_op(self, i):
        if self.tracer is None:
            argv = [sys.executable, "-m", "phasebound.cli"] + self.argv(i)
            env = child_env()
        else:
            trace_out = os.path.join(self.workdir, f"trace-{len(self.traces)}.json")
            self.traces.append(trace_out)
            argv = [sys.executable, os.path.join(BENCH, "cli_entry.py")] + self.argv(i)
            env = child_env(BENCH_TRACE_OUT=trace_out)
        return run_child(argv, env)

    def _sampled_reference(self, p):
        """Bound and lam0 of the extremal CSV as the step profile it encodes."""
        import refs
        with open(self.extremal_csv, "rb") as fh:
            key = (fh.read(), p)
        if key not in self.sampled_refs:
            header, rows = _read_csv(self.extremal_csv)
            r, v = rows[:, 0], np.maximum(rows[:, 1], 0.0)
            s = math.pi * np.concatenate([[0.0], r]) ** 2
            A = float(v.max())
            B = float(np.sum(v ** p * np.diff(s)) ** (1 / p))
            lam0 = float(np.sum(v * (np.exp(-s[:-1]) - np.exp(-s[1:]))))
            self.sampled_refs[key] = (refs.gabor(p, A, B, 1)[1], lam0)
        return self.sampled_refs[key]

    def check(self, i, result):
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[-200:]}"]
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return ["stdout is not JSON"]
        fails = []
        if i < 4:
            tr, p, A, B, par = self.tuples[i]
            regime, ref, cap = self.refs[i]
            if payload.get("regime") != regime:
                fails.append("regime")
            if not rel_err(payload.get("bound"), ref) <= TOL_BOUND:
                fails.append("bound vs reference")
            elif not payload["bound"] <= min(A, cap) * (1 + TOL_SUP):
                fails.append("bound <= min(A, cap)")
            if i == 3:
                header, rows = _read_csv(self.extremal_csv)
                if payload.get("out") != self.extremal_csv or header != ["r", "value"]:
                    fails.append("extremal file")
                elif not (rel_err(rows[0, 1], A) <= TOL_SUP
                          and np.all(np.diff(rows[:, 1]) <= 0)):
                    fails.append("extremal profile: capped at A, nonincreasing")
        elif i == 4:
            bound, lam0 = self._sampled_reference(self.tuples[3][1])
            if not rel_err(payload.get("bound"), bound) <= TOL_BOUND:
                fails.append("extremal file bound vs reference")
            if not rel_err(payload.get("norm"), lam0) <= TOL_BOUND:
                fails.append("extremal file norm vs step-profile lam0")
            ratio = payload.get("ratio")
            if not (isinstance(ratio, float) and 1 - TOL_SAMPLED <= ratio <= 1 + TOL_BOUND):
                fails.append("extremal norm/bound ratio")
        else:
            norm = payload.get("norm")
            if not rel_err(payload.get("bound"), self.field_bound) <= TOL_BOUND:
                fails.append("field bound vs reference")
            if not (isinstance(norm, float) and 0 < norm <= self.field_bound * (1 + TOL_SPECTRAL)
                    and norm <= self.field_dist * (1 + TOL_SPECTRAL)):
                fails.append("field norm <= sharp and distribution bounds")
            if payload.get("K") != BASIS:
                fails.append("basis size")
        return fails

    def cli_layers(self, tracer):
        """Merge the traced children's spans and report their cli timings."""
        records = []
        for path in self.traces:
            with open(path) as fh:
                rec = json.load(fh)
            records.append(rec)
            base = len(tracer.spans)
            for name, start, end, parent in rec["spans"]:
                tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1])
            for key, val in rec["counts"].items():
                tracer.counts[key] += val
        n = max(len(records), 1)
        return {f"cli.{k}": sum(r[k] for r in records) / n
                for k in ("interpreter_ms", "import_ms", "main_ms")}
