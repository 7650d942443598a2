"""Traced stand-in for ``python -m phasebound.cli``, used by cli-cold.

    python3 bench/cli_entry.py <phasebound cli arguments>

Times, inside the child and in CPU time, the interpreter start (the CPU
the process used before its first line), the import of phasebound.cli
and the call to cli.main(argv), with the layer spans of tracing.py
around the calls main makes.  Writes them as JSON to the path
in BENCH_TRACE_OUT and exits with main's exit code.
"""
import time

_T_FIRST = time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main():
    start = time.process_time()
    import phasebound.cli as cli
    imported = time.process_time()
    from tracing import Tracer, instrument
    tracer = Tracer()
    instrument(tracer)
    code = 1
    called = time.process_time()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        done = time.process_time()
        record = {"interpreter_ms": 1e3 * _T_FIRST,
                  "import_ms": 1e3 * (imported - start),
                  "main_ms": 1e3 * (done - called)}
        record.update(tracer.dump())
        with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
