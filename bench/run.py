"""phasebound benchmark: four closed-loop workloads, one caller.

    python3 bench/run.py --workload bound-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``.  ``--self-test`` checks that a relative
1e-6 error in one returned value is counted as a failed op.  See
bench/README.md.
"""
import time

_T_FIRST = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

for _var in common.THREAD_VARS:
    os.environ[_var] = common.THREADS

WORKLOADS = {
    "bound-sweep": ("bound_sweep", "BoundSweep"),
    "grid-norms": ("grid_norms", "GridNorms"),
    "cli-cold": ("cli_cold", "CliCold"),
    "verify-all": ("verify_all", "VerifyAll"),
}
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 3


def make_workload(name):
    module, cls = WORKLOADS[name]
    return getattr(__import__(module), cls)()


def new_stats():
    return {"plain_lat": [], "traced_lat": [], "attempted": 0, "failed": 0,
            "unexpected": 0, "failures": {}}


def run_ops(wl, stats, traced):
    """One round: every op of the workload once, each timed on its own.

    The outputs are checked after the round, outside the op times.
    """
    results = []
    clock = wl.clock
    for i in range(wl.round_len):
        start = clock()
        try:
            out, error = wl.run_op(i), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        results.append((i, out, error, clock() - start))
    for i, out, error, elapsed in results:
        if error is None:
            try:
                fails = wl.check(i, out)
            except Exception as exc:
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            fails = [error]
        stats["traced_lat" if traced else "plain_lat"].append(elapsed)
        stats["attempted"] += 1
        if fails:
            stats["failed"] += 1
            if i not in wl.known_faults:
                stats["unexpected"] += 1
            for f in fails:
                label = f"op {i}: {f}"
                stats["failures"][label] = stats["failures"].get(label, 0) + 1


def measure(wl, seconds, tracer):
    """Whole rounds until the ops have run for ``seconds``.

    With a tracer, rounds run untraced and traced in the order U T T U
    U T T U ..., so the two ops_per_s figures come from the same inputs and
    the same minutes.  The first round, which carries the warm-up, is
    untraced.
    """
    from tracing import instrument
    stats = new_stats()
    rnd = 0
    # a traced run needs at least one round of each kind
    while (sum(stats["plain_lat"]) + sum(stats["traced_lat"]) < seconds
           or (tracer is not None and rnd < 2)):
        traced = tracer is not None and rnd % 4 in (1, 2)
        remove = None
        if traced:
            if wl.in_process:
                remove = instrument(tracer)
            else:
                wl.tracer = tracer
        try:
            run_ops(wl, stats, traced)
        finally:
            if remove:
                remove()
            wl.tracer = None
        rnd += 1
    stats["rounds"] = rnd
    return stats


def end_to_end_metrics(wl, stats, probes):
    lat = stats["plain_lat"]
    ms = [1e3 * x for x in lat]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "ops_per_s": len(lat) / sum(lat),
        "op_ms.p50": common.quantile(ms, 0.5),
        "op_ms.p90": common.quantile(ms, 0.9),
        "peak_rss_mb": peak_rss_mb(wl),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def layer_metrics(wl, tracer, stats, probes):
    """Per-op layer figures from the traced rounds, and the trace overhead."""
    from tracing import LAYER_METRICS
    if wl.in_process:
        # the in-process workloads pay interpreter start and import in set-up
        values = {"cli.interpreter_ms": statistics.median(p["interpreter_ms"] for p in probes),
                  "cli.import_ms": statistics.median(p["import_ms"] for p in probes),
                  "cli.main_ms": 0.0}
    else:
        values = wl.cli_layers(tracer)
    traced, plain = stats["traced_lat"], stats["plain_lat"]
    values.update(tracer.layer_metrics(len(traced)))
    plain_rate, traced_rate = len(plain) / sum(plain), len(traced) / sum(traced)
    values.update({"trace.ops_per_s": traced_rate, "trace.untraced_ops_per_s": plain_rate,
                   "trace.overhead_pct": 100.0 * (plain_rate - traced_rate) / plain_rate})
    return {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}


def peak_rss_mb(wl):
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_probe(workload, seed):
    """Set up as the measured process does; report the CPU time it took.

    process_time() counts the CPU the process used since it started, so
    ``ready`` covers interpreter start, imports and input generation.
    """
    wl = make_workload(workload)
    import_ms = 0.0
    if wl.in_process:
        start = time.process_time()
        import phasebound  # noqa: F401
        import_ms = 1e3 * (time.process_time() - start)
    workdir = os.path.join(common.OUT, f"probe-{os.getpid()}")
    wl.setup(seed, workdir)
    ready = time.process_time()
    wl.cleanup()
    print(json.dumps({"first_line": _T_FIRST, "import_ms": import_ms, "ready": ready}))


def self_test():
    """A relative 1e-6 error in one returned value must fail its op."""
    import bound_sweep
    wl = bound_sweep.BoundSweep()
    wl.setup(0, None)
    wl.references()
    clean = new_stats()
    run_ops(wl, clean, False)
    first_wavelet = next(i for i, t in enumerate(wl.tuples) if t[0] == "wavelet")
    targets = {0: "bound", 1: "norm", first_wavelet: "lam0"}
    plain_run_op = wl.run_op

    def perturbed(i):
        out = plain_run_op(i)
        if i in targets:
            out[targets[i]] *= 1.0 + 1e-6
        return out

    wl.run_op = perturbed
    dirty = new_stats()
    run_ops(wl, dirty, False)
    ok = (clean["failed"] == len(wl.known_faults) and clean["unexpected"] == 0
          and dirty["unexpected"] == len(targets)
          and all(any(k.startswith(f"op {i}:") for k in dirty["failures"]) for i in targets))
    print(json.dumps({"self_test": "pass" if ok else "FAIL",
                      "clean_failed": clean["failed"], "perturbed_failed": dirty["failed"],
                      "perturbed_failures": sorted(dirty["failures"])}, indent=1))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "phasebound", "__init__.py")):
        sys.stderr.write(f"error: no phasebound sources under {common.SRC}; "
                         "run from the root of a phasebound checkout\n")
        return 2
    sys.path.insert(0, common.SRC)
    os.environ["PYTHONPATH"] = common.SRC

    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    common.warm_import()
    probes = common.setup_probes(args.workload, args.seed, SETUP_PROBES)

    wl = make_workload(args.workload)
    workdir = os.path.join(common.OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    wl.setup(args.seed, workdir)
    wl.references()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    try:
        stats = measure(wl, args.seconds, tracer)
        if args.trace:
            metrics = layer_metrics(wl, tracer, stats, probes)
        else:
            metrics = end_to_end_metrics(wl, stats, probes)
    finally:
        wl.cleanup()

    env = common.environment()
    # correct: every op outside the known faults passed its checks
    result = {"correct": stats["unexpected"] == 0, "attempted": stats["attempted"],
              "failed": stats["failed"], "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": stats["rounds"], "failures": stats["failures"],
              "setup_probes": probes, "environment": env, "result": result}
    os.makedirs(common.OUT, exist_ok=True)
    stem = os.path.join(common.OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    print("environment " + json.dumps(env))
    print("failures " + json.dumps(stats["failures"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
