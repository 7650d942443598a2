"""Command-line front end.

Commands: bound, extremal, norm, symmetrize, verify.  A plain ``key = value``
config file may preset any long flag; explicit flags win.  Exit codes:
0 success, 1 malformed flags, invalid constraint values or unreadable files,
2 unattainable supremum (p = 1 without a sup constraint), 3 verification
failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import PhaseboundError, UnattainedBoundError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNATTAINED = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _parse_extended_float(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _load_config(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"expected 'key = value', got {line!r}")
                key, val = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = val
    except OSError as exc:
        sys.stderr.write(f"error: cannot read config: {exc}\n")
        sys.exit(EXIT_USAGE)
    except ValueError as exc:
        sys.stderr.write(f"error: bad config line: {exc}\n")
        sys.exit(EXIT_USAGE)
    return values


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    elif fmt == "csv":
        keys = list(payload)
        print(",".join(keys))
        print(",".join(str(payload[k]) for k in keys))
    else:
        width = max(len(k) for k in payload)
        for k, v in payload.items():
            print(f"{k:<{width}}  {v}")


def _bound_report(args):
    from .scalar import ConstraintSet
    c = ConstraintSet(args.p, args.A, args.B, args.transform, d=args.d, beta=args.beta)
    return c.setting.bound(c)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    _emit(_bound_report(args).as_dict(), args.format)
    return EXIT_OK


def cmd_extremal(args) -> int:
    from .io import write_extremal
    report = _bound_report(args)
    write_extremal(report, args.out, n_samples=args.samples)
    _emit({**report.as_dict(), "out": args.out}, args.format)
    return EXIT_OK


def cmd_norm(args) -> int:
    from . import io
    from .core import lp_norm
    from .gabor import assemble_operator, radial_eigenvalues, spectrum_from_matrix
    from .scalar import ConstraintSet
    K, beta = args.basis, args.beta
    fmt = io.sniff_weight_file(args.weight)
    if fmt in ("disc", "halfplane"):
        # only the disc's formats load wavelet
        from .wavelet import assemble_wavelet_operator, bergman_radial_eigenvalues
    # file format -> (reader, transform of its bound, spectrum of the weight)
    formats = {
        "field": (io.read_weight_field, "gabor", lambda w: spectrum_from_matrix(
            assemble_operator(w, K, points_per_cell=args.points_per_cell))),
        "radial": (io.read_radial_profile, "gabor", lambda w: radial_eigenvalues(w, K)),
        "disc": (io.read_disc_profile, "wavelet",
                 lambda w: bergman_radial_eigenvalues(w, beta, K)),
        "halfplane": (io.read_halfplane_field, "wavelet", lambda w: spectrum_from_matrix(
            assemble_wavelet_operator(w, beta, K))),
    }
    read, transform, spectrum = formats[fmt]
    w = read(args.weight)
    c = ConstraintSet(args.p, w.ess_sup(), lp_norm(w, args.p), transform, d=1, beta=beta)
    spec = spectrum(w)
    report = c.setting.bound(c)
    norm = spec.norm()
    _emit({"norm": norm, "bound": report.bound,
           "ratio": norm / report.bound if report.bound else math.nan,
           "K": args.basis, "tail_bound": spec.tail_bound}, args.format)
    return EXIT_OK


def cmd_symmetrize(args) -> int:
    from .core import schwarz_symmetrize
    from .io import read_weight_field, write_radial_profile
    write_radial_profile(schwarz_symmetrize(read_weight_field(args.weight)), args.out)
    _emit({"out": args.out}, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite
    summaries = run_suite(args.suite, seed=args.seed, basis=args.basis)
    print(json.dumps(summaries if len(summaries) > 1 else summaries[0],
                     indent=2, default=str))
    failed = sum(s["failed"] for s in summaries)
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="phasebound",
                     description="Sharp bounds, extremal weights and spectra "
                                 "for time-frequency and wavelet localization operators")
    parser.add_argument("--config", help="key = value file presetting any flag")
    sub = parser.add_subparsers(dest="command")

    def constraint_flags(p):
        p.add_argument("--transform", choices=("gabor", "wavelet"), default="gabor")
        p.add_argument("--p", type=float, required=True, help="Lebesgue exponent, >= 1")
        p.add_argument("--A", type=_parse_extended_float, required=True,
                       help="sup-norm budget (use 'inf' to drop the constraint)")
        p.add_argument("--B", type=float, required=True, help="L^p budget")
        p.add_argument("--d", type=int, default=1, help="dimension (gabor)")
        p.add_argument("--beta", type=float, default=1.0, help="wavelet order")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    b = sub.add_parser("bound", help="evaluate the sharp operator-norm bound")
    constraint_flags(b)

    e = sub.add_parser("extremal", help="write the extremal weight profile as CSV")
    constraint_flags(e)
    e.add_argument("--out", required=True, help="output CSV (r,value or x,value)")
    e.add_argument("--samples", type=int, default=512)

    n = sub.add_parser("norm", help="operator norm of a weight file, with its bound")
    n.add_argument("--weight", required=True,
                   help="CSV weight: x,omega,re,im | r,value | x,value | x,y,re,im")
    n.add_argument("--p", type=float, required=True)
    n.add_argument("--basis", type=int, default=48, help="basis size K")
    n.add_argument("--beta", type=float, default=1.0, help="wavelet order for disc files")
    n.add_argument("--points-per-cell", type=int, default=2,
                   help="Gauss-Legendre points per cell axis for field assembly")
    n.add_argument("--format", choices=("json", "csv", "text"), default="text")

    s = sub.add_parser("symmetrize", help="radial nonincreasing rearrangement of a field")
    s.add_argument("--weight", required=True, help="input x,omega,re,im CSV")
    s.add_argument("--out", required=True, help="output r,value CSV")
    s.add_argument("--format", choices=("json", "csv", "text"), default="text")

    v = sub.add_parser("verify", help="run the numerical verification suites")
    v.add_argument("--suite", default="all",
                   choices=("bounds", "gabor", "wavelet", "varprob", "rearrange", "all"))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--basis", type=int, default=48)

    return parser


_COMMANDS = {
    "bound": cmd_bound,
    "extremal": cmd_extremal,
    "norm": cmd_norm,
    "symmetrize": cmd_symmetrize,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()

    # config presets: a pre-parser reads --config in every spelling argparse
    # accepts (--config FILE, --config=FILE, abbreviations) and loads its
    # defaults; flags still win, and a preset also satisfies a required flag
    pre = _Parser(prog="phasebound", add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    if config is not None:
        presets = _load_config(config)
        for sub in parser._subparsers._group_actions[0].choices.values():
            known = {a.dest: a for a in sub._actions}
            applied = {k: _coerce(sub, k, v) for k, v in presets.items() if k in known}
            sub.set_defaults(**applied)
            for k in applied:
                known[k].required = False

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    # the one place where domain and file errors become exit codes
    try:
        return _COMMANDS[args.command](args)
    except UnattainedBoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNATTAINED
    except (OSError, PhaseboundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def _coerce(subparser, dest: str, raw: str):
    for action in subparser._actions:
        if action.dest == dest and action.type is not None:
            return action.type(raw)
    return raw


if __name__ == "__main__":
    sys.exit(main())
