"""Shared pieces: paths, the workload base, input helpers, child processes,
statistics and the environment record."""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")

# BLAS and OpenMP pools are fixed before numpy loads, here and in every child
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Workload:
    """Defaults shared by the four workloads.

    A workload sets itself up from a seed (``setup``), computes its
    references apart from phasebound (``references``), runs op i of a
    round (``run_op``) and returns the names of the checks op i failed
    (``check``).  ``known_faults`` holds the op indices that fail because
    of known faults in phasebound.
    """

    in_process = True
    known_faults = frozenset()
    tracer = None
    # op times are CPU seconds of the process that runs phasebound
    clock = staticmethod(time.process_time)

    def references(self):
        pass

    def cleanup(self):
        pass


def loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def bumps(rng, n, half_width):
    """A nonnegative n x n field of four random Gaussian bumps on the box."""
    import numpy as np
    ax = -half_width + (np.arange(n) + 0.5) * (2 * half_width / n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    f = np.zeros((n, n))
    for _ in range(4):
        cx, cy = rng.uniform(-2.5, 2.5, 2)
        s = rng.uniform(0.3, 1.5)
        f += rng.uniform(0.2, 1.0) * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * s * s))
    return f


def child_env(**extra):
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env.update({k: str(v) for k, v in extra.items()})
    return env


def rel_err(value, ref):
    """|value - ref| / |ref|; inf for a missing or non-finite value."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return math.inf
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / abs(ref) if ref else abs(value)


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_child(argv, env, timeout=120.0):
    """Run one child to completion: (exit code, stdout, stderr)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out.decode(), err.decode()


def warm_import():
    """Import phasebound once in a throwaway child: page cache and bytecode."""
    code, _, err = run_child([sys.executable, "-c", "import phasebound"], child_env())
    if code != 0:
        raise RuntimeError(f"phasebound does not import: {err.strip()}")


def children_cpu():
    """CPU seconds of all waited-for children so far (user + system)."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_probes(workload, seed, n):
    """Set the workload up n times in fresh processes.

    Each probe runs the same set-up code as the measured process and
    reports the CPU time it had used when its inputs were ready.  Returns
    dicts with setup_s, interpreter_ms and import_ms.
    """
    probes = []
    for _ in range(n):
        code, out, err = run_child(
            [sys.executable, os.path.join(BENCH, "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)], child_env())
        if code != 0:
            raise RuntimeError(f"setup probe failed: {err.strip()}")
        rec = json.loads(out.strip().splitlines()[-1])
        probes.append({"setup_s": rec["ready"],
                       "interpreter_ms": 1e3 * rec["first_line"],
                       "import_ms": rec["import_ms"]})
    return probes


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }
