"""Spans around the calls into phasebound's layers, recorded from outside.

``instrument`` replaces each public function named in ``SPANS`` by a
wrapper at every name a caller can look it up through: the defining
module, every phasebound module that imported it by name, the package
namespace, and the suite table in ``verify``.  ``LOCAL`` wraps a name in
one module only (``bounds.quad`` counts the quadratures made from
``bounds`` and nothing else).  The returned function puts every original
back, so traced and untraced rounds run the same code.

Spans are kept in memory as (name, start, end, parent), on the process
CPU clock like every time in this benchmark, and summarised into
per-layer self times: a span's duration minus what its direct children
cover.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name)
SPANS = [
    ("bounds", "gabor_bound", "bounds.gabor_bound"),
    ("bounds", "wavelet_bound", "bounds.wavelet_bound"),
    ("bounds", "lambda_root", "bounds.lambda_root"),
    ("extremals", "extremal_weight_gabor", "extremals.extremal_weight"),
    ("extremals", "extremal_weight_wavelet", "extremals.extremal_weight"),
    ("gabor", "radial_eigenvalues", "gabor.radial_eigenvalues"),
    ("gabor", "assemble_operator", "gabor.assemble_operator"),
    ("gabor", "stft", "gabor.stft"),
    ("wavelet", "bergman_radial_eigenvalues", "wavelet.bergman_radial_eigenvalues"),
    ("wavelet", "wavelet_transform", "wavelet.wavelet_transform"),
    ("wavelet", "wavelet_transform_grid", "wavelet.wavelet_transform"),
    ("wavelet", "assemble_wavelet_operator", "wavelet.assemble_wavelet_operator"),
    ("core", "lp_norm", "core.lp_norm"),
    ("core", "schwarz_symmetrize", "core.schwarz_symmetrize"),
    ("varprob", "solve_closed_form", "varprob.solve_closed_form"),
    ("varprob", "solve_kkt_oracle", "varprob.solve_kkt_oracle"),
    ("verify", "verify_bounds", "verify.bounds"),
    ("verify", "verify_rearrange", "verify.rearrange"),
    ("verify", "verify_varprob", "verify.varprob"),
    ("verify", "verify_gabor", "verify.gabor"),
    ("verify", "verify_wavelet", "verify.wavelet"),
    ("io", "read_weight_field", "io.read"),
    ("io", "read_radial_profile", "io.read"),
    ("io", "read_disc_profile", "io.read"),
    ("io", "read_halfplane_field", "io.read"),
    ("io", "write_weight_field", "io.write"),
    ("io", "write_radial_profile", "io.write"),
    ("io", "write_disc_profile", "io.write"),
    ("io", "write_halfplane_field", "io.write"),
    ("io", "write_spectrum", "io.write"),
]

# names wrapped in their own module only: (module, attribute, kind)
LOCAL = [
    ("gabor", "eigh", "span"),
    ("bounds", "quad", "count"),
    ("gabor", "_accumulate", "nodes"),
]

# per-layer metrics of a run: name -> (unit, better); every workload prints all
LAYER_METRICS = {
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "bounds.gabor_bound.ms": ("ms", "lower"),
    "bounds.gabor_bound.calls": ("count", "lower"),
    "bounds.wavelet_bound.ms": ("ms", "lower"),
    "bounds.lambda_root.ms": ("ms", "lower"),
    "bounds.lambda_root.calls": ("count", "lower"),
    "bounds.quad.calls": ("count", "lower"),
    "extremals.extremal_weight.ms": ("ms", "lower"),
    "gabor.radial_eigenvalues.ms": ("ms", "lower"),
    "wavelet.bergman_radial_eigenvalues.ms": ("ms", "lower"),
    "gabor.assemble_operator.ms": ("ms", "lower"),
    "gabor.eigh.ms": ("ms", "lower"),
    "gabor.assemble_operator.gflop": ("GFLOP", "lower"),
    "gabor.assemble_operator.basis_mb": ("MB", "lower"),
    "gabor.stft.ms": ("ms", "lower"),
    "wavelet.wavelet_transform.ms": ("ms", "lower"),
    "wavelet.assemble_wavelet_operator.ms": ("ms", "lower"),
    "core.lp_norm.ms": ("ms", "lower"),
    "core.schwarz_symmetrize.ms": ("ms", "lower"),
    "io.read.ms": ("ms", "lower"),
    "io.write.ms": ("ms", "lower"),
    "io.bytes": ("B", "lower"),
    "varprob.solve_closed_form.ms": ("ms", "lower"),
    "varprob.solve_kkt_oracle.ms": ("ms", "lower"),
    "verify.bounds.ms": ("ms", "lower"),
    "verify.rearrange.ms": ("ms", "lower"),
    "verify.varprob.ms": ("ms", "lower"),
    "verify.gabor.ms": ("ms", "lower"),
    "verify.wavelet.ms": ("ms", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


COUNTERS = {"bounds.quad.calls", "io.bytes", "gabor.assemble_operator.gflop",
            "gabor.assemble_operator.basis_mb"}


class Tracer:
    """In-memory spans plus exact counters, for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.counts = defaultdict(float)

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.process_time(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.process_time()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def node_counter(self, fn):
        """Wrap gabor._accumulate(K, xs, ...): N = xs.size quadrature nodes."""
        counts = self.counts

        def wrapper(K, xs, *args, **kwargs):
            n = xs.size
            # computed, not measured: 8 N K^2 flop for the Gram product and
            # 16 N K bytes for the complex basis stack
            counts["gabor.assemble_operator.gflop"] += 8.0 * n * K * K / 1e9
            counts["gabor.assemble_operator.basis_mb"] += 16.0 * n * K / 1e6
            return fn(K, xs, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def io_wrapper(self, name, fn):
        """Span plus the size of the file read or written."""
        inner = self.span(name, fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            # readers take (path); writers take (object, path, ...)
            path = args[1] if name == "io.write" else args[0]
            out = inner(*args, **kwargs)
            try:
                counts["io.bytes"] += os.path.getsize(path)
            except OSError:
                pass
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self):
        """name -> (total self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            out[name][0] += (end - start) - child[i]
            out[name][1] += 1
        return out

    def layer_metrics(self, n_ops):
        """Per-op values of the span and counter metrics in LAYER_METRICS."""
        n = max(n_ops, 1)
        selfs = self.self_times()
        out = {}
        for key in LAYER_METRICS:
            if key.startswith(("cli.", "trace.")):
                continue
            if key in COUNTERS:
                out[key] = self.counts.get(key, 0.0) / n
            elif key.endswith(".ms"):
                out[key] = 1e3 * selfs.get(key[:-3], (0.0, 0))[0] / n
            else:
                out[key] = selfs.get(key[:-len(".calls")], (0.0, 0))[1] / n
        return out

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def _phasebound_namespaces():
    return [vars(m) for name, m in list(sys.modules.items())
            if m is not None and (name == "phasebound" or name.startswith("phasebound."))]


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them all."""
    for mod in {m for m, _, _ in SPANS + LOCAL}:
        importlib.import_module(f"phasebound.{mod}")
    namespaces = _phasebound_namespaces()
    undo = []

    def replace(ns, key, new):
        undo.append((ns, key, ns[key]))
        ns[key] = new

    for mod, attr, name in SPANS:
        module = sys.modules[f"phasebound.{mod}"]
        orig = getattr(module, attr)
        wrapped = (tracer.io_wrapper(name, orig) if name.startswith("io.")
                   else tracer.span(name, orig))
        for ns in namespaces:
            for key, val in list(ns.items()):
                if val is orig:
                    replace(ns, key, wrapped)
        # run_suite looks suites up through this table, not by name
        table = vars(sys.modules["phasebound.verify"])["_SUITE_FUNCS"]
        for key, val in list(table.items()):
            if val is orig:
                replace(table, key, wrapped)

    for mod, attr, kind in LOCAL:
        ns = vars(sys.modules[f"phasebound.{mod}"])
        orig = ns[attr]
        if kind == "span":
            replace(ns, attr, tracer.span(f"{mod}.{attr}", orig))
        elif kind == "count":
            replace(ns, attr, tracer.counter(f"{mod}.{attr}.calls", orig))
        else:
            replace(ns, attr, tracer.node_counter(orig))

    def remove():
        for ns, key, orig in reversed(undo):
            ns[key] = orig

    return remove
