"""CSV interchange and the command-line interface."""
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from phasebound import cli
from phasebound.core import RadialProfile, WeightField, lp_norm
from phasebound.errors import InvalidInputError
from phasebound.extremals import (extremal_signal_wavelet, extremal_weight_gabor,
                                  extremal_weight_wavelet)
from phasebound.io import (read_disc_profile, read_halfplane_field,
                           read_radial_profile, read_weight_field,
                           sniff_weight_file, write_disc_profile,
                           write_halfplane_field, write_radial_profile,
                           write_spectrum, write_weight_field)
from phasebound.scalar import ConstraintSet
from phasebound.verify import random_field
from phasebound.wavelet import (DiscProfile, HalfPlaneGrid, HalfPlaneField,
                                bergman_radial_eigenvalues, cauchy_norm_const)


@pytest.fixture
def run_cli(capsys):
    """Run the CLI in process; returns (exit code, stdout, stderr).

    argparse errors leave through SystemExit, whose code is the exit code.
    """
    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err
    return run


def run_cli_child(*args):
    proc = subprocess.run([sys.executable, "-m", "phasebound.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# CSV roundtrips
# ---------------------------------------------------------------------------

def test_weight_field_roundtrip(tmp_path):
    f = random_field(np.random.default_rng(0), n=16, half_width=2.0)
    path = tmp_path / "field.csv"
    write_weight_field(f, path)
    assert sniff_weight_file(path) == "field"
    back = read_weight_field(path)
    assert back.n == f.n
    assert back.half_width == pytest.approx(f.half_width)
    assert np.max(np.abs(back.values - f.values)) == 0.0


PROFILE_FILES = {
    "plane": (RadialProfile, write_radial_profile, read_radial_profile, "radial"),
    "disc": (DiscProfile, write_disc_profile, read_disc_profile, "disc"),
}


@pytest.mark.parametrize("setting, prof", [
    ("plane", RadialProfile.sampled([0.5, 1.0, 2.0], [3.0, 2.0, 0.5])),
    ("disc", DiscProfile.sampled([0.1, 0.5, 0.9], [2.0, 1.0, 0.25]))], ids=["plane", "disc"])
def test_profile_roundtrip(tmp_path, setting, prof):
    _, write, read, tag = PROFILE_FILES[setting]
    path = tmp_path / "prof.csv"
    write(prof, path)
    assert sniff_weight_file(path) == tag
    back = read(path)
    assert back.setting == prof.setting
    assert back.knots == pytest.approx(prof.knots)
    assert back.knot_values == pytest.approx(prof.knot_values)


@pytest.mark.parametrize("setting, other", [
    ("plane", [DiscProfile.sampled([0.2, 0.5], [2.0, 1.0]), DiscProfile.power(1.0, 3.0)]),
    ("disc", [RadialProfile.sampled([0.2, 5.0], [2.0, 1.0]), RadialProfile.gaussian(1.0, 1.0)])],
    ids=["plane", "disc"])
def test_profile_writers_refuse_what_no_reader_accepts(tmp_path, setting, other):
    # a constant has no L^p norm and no extent, and a profile of the other
    # setting has the other coordinate: the disc writer wrote a constant as
    # 512 rows that read back with L^2 norm 80.2, and wrote a plane profile
    # as x,value rows past x = 1 or raised a bare KeyError
    cls, write, _, _ = PROFILE_FILES[setting]
    path = tmp_path / "w.csv"
    for prof in [cls.constant(1.0), *other]:
        with pytest.raises(InvalidInputError):
            write(prof, path)
        assert not path.exists()


def test_halfplane_roundtrip(tmp_path):
    grid = HalfPlaneGrid.logarithmic(-1.0, 1.0, 8, 0.5, 2.0, 6)
    rng = np.random.default_rng(1)
    field = HalfPlaneField(grid, (rng.normal(size=(8, 6))
                                  + 1j * rng.normal(size=(8, 6))))
    path = tmp_path / "hp.csv"
    write_halfplane_field(field, path)
    assert sniff_weight_file(path) == "halfplane"
    back = read_halfplane_field(path)
    assert np.max(np.abs(back.values - field.values)) < 1e-15
    assert np.max(np.abs(back.grid.cell_masses() - grid.cell_masses())) < 1e-12


def test_spectrum_export(tmp_path):
    from phasebound.gabor import radial_eigenvalues
    spec = radial_eigenvalues(RadialProfile.ball(1.0, 1.0), 4)
    path = tmp_path / "spec.csv"
    write_spectrum(spec, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "k,eigenvalue"
    assert float(rows[1].split(",")[1]) == pytest.approx(1 - math.exp(-1))


def test_one_header_table_for_readers_writers_and_sniffer(tmp_path, monkeypatch):
    # a spectrum file is written from the table but is no weight; read_weight
    # finds its reader by name when it is called, so a reader swapped into
    # the module (as the benchmark's tracer does) is the one it runs
    from phasebound import io
    from phasebound.gabor import radial_eigenvalues
    spec_path = tmp_path / "spec.csv"
    write_spectrum(radial_eigenvalues(RadialProfile.ball(1.0, 1.0), 4), spec_path)
    with pytest.raises(InvalidInputError, match="unrecognized header"):
        io.read_weight(spec_path)
    path = tmp_path / "g.csv"
    write_radial_profile(RadialProfile.gaussian(1.0, 1.0), path)
    monkeypatch.setattr(io, "read_radial_profile", lambda p: ("swapped", p))
    assert io.read_weight(path) == ("swapped", path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InvalidInputError):
        sniff_weight_file(path)
    with pytest.raises(InvalidInputError):
        read_weight_field(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_bound_examples(run_cli):
    code, out, _ = run_cli("bound", "--transform", "gabor", "--p", "1",
                           "--A", "1", "--B", "1", "--d", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "ball"
    assert payload["bound"] == pytest.approx(0.6321205588285577, abs=1e-7)

    code, out, _ = run_cli("bound", "--transform", "gabor", "--p", "2",
                           "--A", "1", "--B", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["bound"] == pytest.approx(0.6967347, abs=1e-7)
    assert payload["lambda"] == pytest.approx(1.6487213, abs=1e-7)

    code, out, _ = run_cli("bound", "--transform", "wavelet", "--p", "2",
                           "--beta", "1", "--A", "inf", "--B", "1", "--format", "json")
    assert json.loads(out)["bound"] == pytest.approx(0.2523, abs=1e-4)


def test_cli_exit_codes(run_cli):
    # one real child: the exit code reaches the shell through __main__
    code, _, err = run_cli_child("bound", "--transform", "gabor", "--p", "1",
                                 "--A", "inf", "--B", "3")
    assert code == 2
    assert "3.0" in err and "not attained" in err

    code, _, _ = run_cli("bound", "--transform", "gabor", "--p", "2")  # missing flags
    assert code == 1
    code, _, _ = run_cli("norm", "--weight", "/nonexistent.csv", "--p", "2")
    assert code == 1


def test_cli_extremal_norm_pipeline(tmp_path, run_cli):
    out_csv = tmp_path / "extremal.csv"
    code, out, _ = run_cli("extremal", "--transform", "gabor", "--p", "2",
                           "--A", "1", "--B", "1", "--out", str(out_csv),
                           "--format", "json")
    assert code == 0
    code, out, _ = run_cli("norm", "--weight", str(out_csv), "--p", "2",
                           "--basis", "48", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert 0.9999 <= payload["ratio"] <= 1.0


def test_cli_extremal_wavelet_pipeline(tmp_path, run_cli):
    out_csv = tmp_path / "disc.csv"
    code, out, _ = run_cli("extremal", "--transform", "wavelet", "--p", "2",
                           "--A", "inf", "--B", "1", "--beta", "1",
                           "--out", str(out_csv), "--format", "json")
    assert code == 0
    assert json.loads(out)["regime"] == "gaussian"
    assert sniff_weight_file(out_csv) == "disc"
    code, out, _ = run_cli("norm", "--weight", str(out_csv), "--p", "2",
                           "--beta", "1", "--basis", "16", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # the sampled staircase is near-extremal for its own (A, B)
    assert 0.97 <= payload["ratio"] <= 1.0 + 1e-9


def test_cli_output_formats(run_cli):
    code, out, _ = run_cli("bound", "--transform", "gabor", "--p", "1",
                           "--A", "1", "--B", "1", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "transform,regime,bound,lambda,critical_ratio"
    assert row.split(",")[1] == "ball"

    code, out, _ = run_cli("bound", "--transform", "gabor", "--p", "1",
                           "--A", "1", "--B", "1", "--format", "text")
    assert code == 0
    assert "regime" in out and "ball" in out


def test_cli_norm_square_indicator(tmp_path, run_cli):
    n = 128
    ax = -6.0 + (np.arange(n) + 0.5) * (12.0 / n)
    inside = (np.abs(ax[:, None]) < 0.5) & (np.abs(ax[None, :]) < 0.5)
    path = tmp_path / "square.csv"
    write_weight_field(WeightField(6.0, n, inside.astype(complex)), path)
    code, out, _ = run_cli("norm", "--weight", str(path), "--p", "1",
                           "--basis", "24", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] < 1.0 - 1e-3  # square is not a ball


def test_cli_norm_halfplane_disc_mask(tmp_path, run_cli):
    from phasebound.bounds import G_beta
    grid = HalfPlaneGrid.logarithmic(-0.8, 0.8, 96, 0.42, 2.1, 96)
    path = tmp_path / "disc_mask.csv"
    write_halfplane_field(DiscProfile.indicator(1.0, 1.0).on_grid(grid), path)
    code, out, _ = run_cli("norm", "--weight", str(path), "--p", "1",
                           "--basis", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # a hyperbolic disc attains its bound, up to the grid's resolution
    assert payload["norm"] == pytest.approx(G_beta(1.0, 1.0), abs=1e-3)
    assert payload["ratio"] == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize("profile, write", [
    (RadialProfile.sampled([0.5, 1.0], [1e200, 1e199]), write_radial_profile),
    (DiscProfile.sampled([0.5, 0.75], [1e200, 1e199]), write_disc_profile),
])
def test_cli_norm_of_large_sampled_weight(tmp_path, run_cli, profile, write):
    # an L^p norm summed as sum v^p m overflowed here, and the command
    # exited 1 with "B must be positive and finite"
    path = tmp_path / "w.csv"
    write(profile, path)
    code, out, err = run_cli("norm", "--weight", str(path), "--p", "2",
                             "--basis", "8", "--format", "json")
    assert code == cli.EXIT_OK, err
    payload = json.loads(out)
    assert 0.0 < payload["ratio"] <= 1.0


def test_cli_norm_past_the_doubles_is_an_error(tmp_path):
    # an L^2 norm past the doubles printed a RuntimeWarning and "B must be
    # positive and finite", or a traceback with warnings as errors
    path = _write(tmp_path / "w.csv", "x,value\n0.3,1e308\n0.6,1e308\n")
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "phasebound.cli",
                           "norm", "--weight", str(path), "--p", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "L^2 norm" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_symmetrize_monotonicity(tmp_path, run_cli):
    f = random_field(np.random.default_rng(3), n=96, half_width=6.0)
    fpath = tmp_path / "field.csv"
    write_weight_field(f, fpath)
    spath = tmp_path / "star.csv"
    code, _, _ = run_cli("symmetrize", "--weight", str(fpath), "--out", str(spath))
    assert code == 0
    _, out1, _ = run_cli("norm", "--weight", str(fpath), "--p", "2",
                         "--basis", "32", "--format", "json")
    _, out2, _ = run_cli("norm", "--weight", str(spath), "--p", "2",
                         "--basis", "32", "--format", "json")
    assert json.loads(out2)["norm"] >= json.loads(out1)["norm"] - 1e-6


def test_cli_verify_deterministic_and_config(tmp_path, run_cli):
    code1, out1, _ = run_cli("verify", "--suite", "rearrange", "--seed", "11")
    code2, out2, _ = run_cli("verify", "--suite", "rearrange", "--seed", "11")
    assert code1 == code2 == 0
    # every field but each check's CPU time repeats exactly
    payload, again = json.loads(out1), json.loads(out2)
    for d in payload["details"] + again["details"]:
        assert d.pop("elapsed_ms") >= 0.0
    assert payload == again
    assert payload["suite"] == "rearrange" and payload["failed"] == 0
    assert all({"name", "ok"} <= set(d) for d in payload["details"])

    cfg = tmp_path / "pb.cfg"
    cfg.write_text("format = json\nB = 1.0\n")
    for spelling in (["--config", str(cfg)], [f"--config={cfg}"]):
        code, out, _ = run_cli(*spelling, "bound", "--transform", "gabor",
                               "--p", "2", "--A", "1")
        assert code == 0, spelling
        assert json.loads(out)["bound"] == pytest.approx(0.6967347, abs=1e-6)


def test_nan_and_infinite_parameters_rejected(tmp_path, run_cli):
    # the paper's domain is 1 <= p < inf and 0 < beta < inf; NaN fails every
    # comparison, so each check must be written to reject it
    weight = tmp_path / "extremal.csv"
    write_radial_profile(RadialProfile.gaussian(1.0, 1.0), weight)
    target = tmp_path / "out.csv"
    for args in (["bound", "--p", "nan", "--A", "1", "--B", "1"],
                 ["bound", "--p", "inf", "--A", "1", "--B", "1"],
                 ["bound", "--p", "nan", "--A", "1", "--B", "1", "--transform", "wavelet"],
                 ["extremal", "--p", "nan", "--A", "1", "--B", "1", "--out", str(target)],
                 ["norm", "--weight", str(weight), "--p", "inf"],
                 ["norm", "--weight", str(weight), "--p", "nan"]):
        code, out, err = run_cli(*args)
        assert code == cli.EXIT_USAGE and out == "", args
        assert err.startswith("error: p must satisfy") and err.count("\n") == 1, (args, err)
    assert not target.exists()

    field = random_field(np.random.default_rng(0), n=8)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            ConstraintSet(bad, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            lp_norm(field, bad)
        with pytest.raises(InvalidInputError):
            RadialProfile.gaussian(1.0, 1.0).lp_norm(bad)
        with pytest.raises(InvalidInputError):
            lp_norm(DiscProfile.power(1.0, 2.0), bad)
        with pytest.raises(InvalidInputError):
            ConstraintSet(2.0, 1.0, 1.0, "wavelet", beta=bad)
    with pytest.raises(InvalidInputError):
        cauchy_norm_const(math.nan)
    with pytest.raises(InvalidInputError):
        bergman_radial_eigenvalues(DiscProfile.power(1.0, 2.0), math.nan, 3)
    with pytest.raises(InvalidInputError):
        extremal_signal_wavelet(0.0, 1.0, math.nan)
    with pytest.raises(InvalidInputError):
        extremal_signal_wavelet(0.0, math.nan, 1.0)


def test_cli_invalid_constraints_exit_usage(capsys, tmp_path):
    assert cli.main(["bound", "--p", "0.5", "--A", "1", "--B", "1"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1

    target = tmp_path / "weight.csv"
    assert cli.main(["extremal", "--p", "2", "--A", "1", "--B", "1", "--d", "0",
                     "--out", str(target)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("args", [
    ["--samples", "0"],
    ["--samples", "-3"],
    ["--transform", "wavelet", "--samples", "0"],
    ["--transform", "wavelet", "--samples", "1"],
    ["--p", "1", "--samples", "1"],
], ids=["zero", "negative", "wavelet-zero", "wavelet-one", "ball-one"])
def test_cli_extremal_rejects_bad_sample_count(args, capsys, tmp_path):
    # --samples 0 was a ZeroDivisionError traceback and -3 a ValueError; on
    # the disc 0 wrote a header-only CSV, and the p = 1 ball at 1 sample a
    # lone 0.0 row, both of which norm then rejected
    target = tmp_path / "weight.csv"
    argv = ["extremal", "--p", "2", "--A", "1", "--B", "2", *args, "--out", str(target)]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: need at least 2 samples")
    assert err.count("\n") == 1 and not target.exists()


# the regimes and dimensions of the extremal command; the last two are the
# regime ties of test_extremals.py, where lam rounds to at most A
EXTREMAL_CASES = [
    ConstraintSet(2.0, 1.0, 0.5),
    ConstraintSet(2.0, 1.0, 2.0),
    ConstraintSet(2.5, 1.0, 1.5, d=2),
    ConstraintSet(2.5, 1.0, 3.0, d=3),
    ConstraintSet(1.0, 1.0, 2.0),
    ConstraintSet(1.0, 1.0, 2.0, "wavelet", beta=1.5),
    ConstraintSet(2.0, math.inf, 1.0, "wavelet"),
    ConstraintSet(2.0, 1.0, 2.0, "wavelet", beta=1.3),
    ConstraintSet(2.0, 1.0, 0.7071067811865476),
    ConstraintSet(2.0, 1.0, 1.5853309190424045, "wavelet"),
]
# each case's weight by its name in its setting (the test ids), and that weight's kind
EXTREMAL_WEIGHTS = ["gaussian", "truncated_gaussian", "truncated_gaussian", "truncated_gaussian",
                    "ball_indicator", "disc_indicator", "power", "truncated_power",
                    "gaussian", "power"]
EXTREMAL_KINDS = {"gaussian": "family", "power": "family", "truncated_gaussian": "truncated",
                  "truncated_power": "truncated", "ball_indicator": "indicator",
                  "disc_indicator": "indicator"}


def _extremal_argv(c, out):
    par = ["--d", str(c.d)] if c.transform == "gabor" else ["--beta", repr(c.beta)]
    return ["extremal", "--transform", c.transform, "--p", repr(c.p), "--A", repr(c.A),
            "--B", repr(c.B), *par, "--out", str(out), "--format", "json"]


@pytest.mark.parametrize("c, weight", zip(EXTREMAL_CASES, EXTREMAL_WEIGHTS))
def test_cli_extremal_csv_matches_profile_writers(c, weight, tmp_path, run_cli):
    # the command writes its CSV without building the profile; the file is
    # the one the profile writers write, on the numpy grid, with the values
    # of the profile's own numpy evaluation to libm's rounding
    code, _, err = run_cli(*_extremal_argv(c, tmp_path / "cli.csv"))
    assert code == 0, err
    if c.transform == "gabor":
        w = extremal_weight_gabor(c)
        write_radial_profile(w, tmp_path / "lib.csv")
    else:
        w = extremal_weight_wavelet(c)
        write_disc_profile(w, tmp_path / "lib.csv")
    assert w.kind == EXTREMAL_KINDS[weight]
    text = (tmp_path / "cli.csv").read_text()
    assert text == (tmp_path / "lib.csv").read_text()
    rows = np.loadtxt(tmp_path / "cli.csv", delimiter=",", skiprows=1)
    n = rows.shape[0]
    grid = (np.linspace(rows[-1, 0] / n, rows[-1, 0], n) if c.transform == "gabor"
            else np.linspace(0.0, 1.0, n + 2)[1:-1])
    assert n == 512 and np.array_equal(rows[:, 0], grid)
    # numpy's SIMD exp and pow are within an ulp of libm's, and the product
    # by lam can round that to two ulps of the value
    np.testing.assert_array_max_ulp(rows[:, 1], w(grid), maxulp=2)


@pytest.mark.parametrize("body, message", [
    ("0.5,1.0\n\n1.0,0.5\n", None),
    ('"0.5","1.0"\n1.0,0.5\n', None),
    ("", "no data rows"),
    ("\n\n", "no data rows"),
    ("0.5,1.0\n1.0,0.5,3\n", "row 3 has 3 columns, expected 2"),
    ("0.5,1.0,7\n1.0,0.5,9\n", "row 2 has 3 columns, expected 2"),
    ("0.5,1.0\n   \n", "row 3 has 1 columns, expected 2"),
    ("0.5,1.0\n1.0,\n", "non-numeric entry"),
    ("0.5,abc\n", "non-numeric entry"),
    ("0.5,1.0\n1.0,nan\n", "entries must be finite"),
    ("0.5,1e400\n", "entries must be finite"),
], ids=["blank-line", "quoted", "empty", "blank-only", "long-row", "wide-file",
        "whitespace-row", "empty-entry", "text", "nan", "overflow"])
def test_csv_reader_checks(body, message, tmp_path):
    # numpy's parser reads well-formed files; every other file gets the
    # csv parser's verdict, with the row number of the first bad row
    path = _write(tmp_path / "r.csv", "r,value\n" + body)
    if message is None:
        prof = read_radial_profile(path)
        assert prof.knots.tolist() == [0.5, 1.0] and prof.knot_values.tolist() == [1.0, 0.5]
    else:
        with pytest.raises(InvalidInputError, match=message):
            read_radial_profile(path)


def _write(path, text):
    path.write_text(text)
    return path


def _field_rows_swapped(tmp_path):
    path = tmp_path / "field.csv"
    write_weight_field(random_field(np.random.default_rng(4), n=8, half_width=6.0), path)
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    return path


def _halfplane_uneven(tmp_path):
    path = tmp_path / "hp.csv"
    rows = ["x,y,re,im"] + [f"{x!r},{y!r},1.0,0.0"
                            for x in (-1.0, 0.0, 2.0) for y in (0.5, 1.0, 2.0)]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("make", [
    lambda tmp: _write(tmp / "r.csv", "r,value\n0.5,1.0,7\n1.0,0.5,9\n"),
    _field_rows_swapped,
    _halfplane_uneven,
    lambda tmp: _write(tmp / "hp1.csv", "x,y,re,im\n0.0,1.0,1.0,0.0\n"),
    # profiles are read as written: MeasureProfile rejects negative and
    # increasing values, where the readers used to clamp them
    lambda tmp: _write(tmp / "r-neg.csv", "r,value\n0.5,1.0\n1.0,-3.0\n"),
    lambda tmp: _write(tmp / "r-up.csv", "r,value\n0.5,1.0\n1.0,2.0\n1.5,1.0\n"),
    lambda tmp: _write(tmp / "x-neg.csv", "x,value\n0.2,1.0\n0.5,-1.0\n"),
    lambda tmp: _write(tmp / "x-up.csv", "x,value\n0.2,1.0\n0.5,2.0\n0.8,0.5\n"),
], ids=["extra-column", "field-rows-out-of-order", "halfplane-uneven-x",
        "halfplane-one-row", "radial-negative", "radial-increasing", "disc-negative",
        "disc-increasing"])
def test_cli_norm_rejects_malformed_file(tmp_path, capsys, make):
    path = make(tmp_path)
    assert cli.main(["norm", "--weight", str(path), "--p", "2", "--basis", "8"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("ppc", ["0", "-1"])
def test_cli_norm_rejects_bad_points_per_cell(tmp_path, capsys, ppc):
    path = tmp_path / "field.csv"
    write_weight_field(random_field(np.random.default_rng(4), n=8, half_width=6.0), path)
    assert cli.main(["norm", "--weight", str(path), "--p", "2", "--basis", "8",
                     "--points-per-cell", ppc]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "points_per_cell" in err


@pytest.mark.parametrize("command", ["norm", "symmetrize"])
@pytest.mark.parametrize("body", [b"x,omega,re\xff,im\n0.0,0.0,1.0,0.0\n",
                                  b"x,omega,re,im\n0.0,0.0,1.0\xff,0.0\n"],
                         ids=["header", "data-row"])
def test_cli_rejects_non_utf8_weight_file(tmp_path, capsys, command, body):
    # a byte that is not UTF-8 was a bare UnicodeDecodeError traceback, from
    # the sniffer, the header read or the csv re-parse of the data rows
    path = tmp_path / "field.csv"
    path.write_bytes(body)
    extra = ["--p", "2"] if command == "norm" else ["--out", str(tmp_path / "r.csv")]
    assert cli.main([command, "--weight", str(path), *extra]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err and "UTF-8" in err


def test_cli_verify_rejects_negative_seed(run_cli):
    # numpy's seeding raised a bare ValueError for a negative seed
    code, out, err = run_cli("verify", "--suite", "bounds", "--seed", "-1")
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: seed must be a nonnegative integer") and err.count("\n") == 1


def test_cli_truncated_extremal_csv_reaches_past_the_cap(tmp_path, run_cli):
    # lam = 3.8e27 caps the Gaussian at A = 1 out to r = 4.5; the grid used to
    # end where lam e^{-pi r^2} = 1e-12 lam, at r = 2.97, inside the cap, so
    # every row read 1.0 and the file held a ball of L^2 norm 5.26, not 8
    out_csv = tmp_path / "capped.csv"
    code, out, _ = run_cli("extremal", "--p", "2", "--A", "1", "--B", "8",
                           "--out", str(out_csv), "--format", "json")
    assert code == 0 and json.loads(out)["lambda"] > 1e27
    w = read_radial_profile(out_csv)
    assert lp_norm(w, 2.0) == pytest.approx(8.0, rel=5e-3)
    assert w.knot_values[0] == 1.0
    assert w.knot_values[-1] == pytest.approx(1e-12, rel=1e-9)
    # the Gaussian and the ball keep their grids
    for w in (RadialProfile.gaussian(0.0, 2.0), RadialProfile.gaussian(3.0, 2.0),
              RadialProfile.ball(1.0, 2.0)):
        write_radial_profile(w, out_csv)
        r_max = (w.edge * 1.25 if w.kind == "indicator"
                 else math.sqrt(2.0 * 12.0 * math.log(10.0) / math.pi))
        assert read_radial_profile(out_csv).knots[-1] == r_max


@pytest.mark.parametrize("argv", [
    ["--p", "1.001", "--A", "1", "--B", "2"],
    ["--p", "2", "--A", "1", "--B", "27"],
    ["--transform", "wavelet", "--p", "1.0003", "--A", "1", "--B", "18000", "--beta", "1.8"]],
    ids=["gabor-p-near-1", "gabor-large-ratio", "wavelet"])
def test_cli_extremal_refuses_non_finite_rows(argv, tmp_path, run_cli):
    # a peak level past the doubles samples to inf and NaN: the plane's grid
    # has no extent, and the disc wrote 488 NaN rows of 512 and exited 0
    out_csv = tmp_path / "inf.csv"
    code, out, err = run_cli("extremal", *argv, "--out", str(out_csv))
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "not finite" in err
    assert not out_csv.exists()


def test_profile_writer_refuses_non_finite_rows(tmp_path):
    # the Gaussian's grid end sqrt(27.6 scale / pi) overflows at this scale
    path = tmp_path / "w.csv"
    with pytest.raises(InvalidInputError, match="not finite"):
        write_radial_profile(RadialProfile.gaussian(1.0, 1e308), path)
    assert not path.exists()


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no phasebound module imports scipy, at load or later: the package
    # runs on numpy and the standard library alone
    code = ("import sys, phasebound; before = " + SCIPY_LOADED + "; "
            "import phasebound.cli; print(before + " + SCIPY_LOADED + ")")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _run_commands(commands, prelude="", loaded=SCIPY_LOADED):
    """Run the commands in one child through cli.main, after the code
    ``prelude``; per command its exit status, its output and the value of
    the expression ``loaded`` after it (the scipy modules loaded)."""
    code = (prelude + "import contextlib, io, json, sys\n"
            "from phasebound.cli import main\n"
            "report = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        status = main(argv)\n"
            "    report.append([status, out.getvalue(), " + loaded + "])\n"
            "print(json.dumps(report))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert len(report) == len(commands)
    return report


def test_numpy_only_commands_leave_scipy_unloaded(tmp_path):
    # bound, extremal, symmetrize, norm on plane, half-plane and disc files,
    # and the wavelet verify suite run on numpy alone; one child runs them
    # all through cli.main and reports the scipy modules loaded after each
    field = tmp_path / "field.csv"
    write_weight_field(random_field(np.random.default_rng(5), n=16, half_width=2.0), field)
    field32 = tmp_path / "field32.csv"
    write_weight_field(random_field(np.random.default_rng(6), n=32, half_width=6.0), field32)
    halfplane = tmp_path / "halfplane.csv"
    grid = HalfPlaneGrid.logarithmic(-0.8, 0.8, 32, 0.42, 2.1, 32)
    write_halfplane_field(DiscProfile.indicator(1.0, 1.0).on_grid(grid), halfplane)
    bound = ["bound", "--format", "json", "--A", "1"]
    commands = [
        bound + ["--p", "2", "--B", "1.5"],
        bound + ["--p", "2.5", "--B", "3", "--d", "3"],
        bound + ["--p", "1", "--B", "2", "--d", "2"],
        bound + ["--transform", "wavelet", "--p", "2", "--B", "2", "--beta", "1.5"],
        ["extremal", "--p", "2", "--A", "1", "--B", "2", "--out", str(tmp_path / "g.csv")],
        ["extremal", "--transform", "wavelet", "--p", "2", "--A", "1", "--B", "2",
         "--out", str(tmp_path / "w.csv")],
        ["symmetrize", "--weight", str(field), "--out", str(tmp_path / "s.csv")],
        ["norm", "--weight", str(tmp_path / "g.csv"), "--p", "2", "--format", "json"],
        ["norm", "--weight", str(field32), "--p", "2", "--basis", "24", "--format", "json"],
        ["norm", "--weight", str(halfplane), "--p", "2", "--basis", "12", "--format", "json"],
        ["norm", "--weight", str(tmp_path / "w.csv"), "--p", "2", "--format", "json"],
        ["verify", "--suite", "wavelet", "--seed", "0"],
    ]
    report = _run_commands(commands)
    for argv, (status, _, loaded) in zip(commands, report):
        assert status == 0 and loaded == [], argv
    # the bound commands cover d = 1, the truncated d = 3 level, the d = 2 ball
    assert [json.loads(out)["regime"] for _, out, _ in report[:3]] == [
        "truncated", "truncated", "ball"]
    # the norms: the radial spectrum in closed form, the plane and half-plane
    # fields assembled, the disc profile's Beta sums
    assert [sorted(json.loads(out)) for _, out, _ in report[-5:-1]] == 4 * [
        ["K", "bound", "norm", "ratio", "tail_bound"]]
    wavelet_suite = json.loads(report[-1][1])
    assert wavelet_suite["suite"] == "wavelet" and wavelet_suite["failed"] == 0
    # a second child sets sys.modules["scipy"] = None, so that any scipy
    # import raises, as in an install without scipy: every command exits 0,
    # and the norms print the same numbers
    blocked = _run_commands(commands, 'import sys\nsys.modules["scipy"] = None\n')
    assert [status for status, _, _ in blocked] == [0] * len(commands)
    assert [out for _, out, _ in blocked[-5:-1]] == [out for _, out, _ in report[-5:-1]]


def test_plane_commands_leave_wavelet_unloaded(tmp_path):
    # a plane file's norm, and the commands that write plane files, import
    # the plane's setting alone
    field = tmp_path / "field.csv"
    write_weight_field(random_field(np.random.default_rng(6), n=32, half_width=6.0), field)
    radial = tmp_path / "g.csv"
    commands = [
        ["extremal", "--p", "2", "--A", "1", "--B", "2", "--out", str(radial)],
        ["norm", "--weight", str(radial), "--p", "2", "--format", "json"],
        ["norm", "--weight", str(field), "--p", "2", "--basis", "24", "--format", "json"],
        ["symmetrize", "--weight", str(field), "--out", str(tmp_path / "s.csv")],
    ]
    report = _run_commands(commands, loaded="'phasebound.wavelet' in sys.modules")
    assert [[status, loaded] for status, _, loaded in report] == [[0, False]] * len(commands)


NUMPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')"


def test_bound_leaves_numpy_unloaded(tmp_path):
    # bound and extremal run on the standard library: one cold child runs
    # `python -m phasebound.cli bound ...` for each regime, then extremal for
    # each kind and d, and reports the numpy modules loaded after each; then
    # it loads the lazy namespace
    bound = ["bound", "--format", "json", "--A", "1"]
    wavelet = bound + ["--transform", "wavelet", "--beta", "1.5"]
    extremals = [_extremal_argv(c, tmp_path / f"{i}.csv")
                 for i, c in enumerate(EXTREMAL_CASES[:8])]
    commands = [bound + ["--p", "2", "--B", "0.5"],
                bound + ["--p", "2.5", "--B", "3", "--d", "3"],
                bound + ["--p", "1", "--B", "2", "--d", "2"],
                wavelet + ["--p", "2", "--B", "2"],
                wavelet + ["--p", "1", "--B", "2"],
                *extremals]
    code = textwrap.dedent("""\
        import contextlib, io, json, runpy, sys
        report = []
        for argv in json.loads(sys.argv[1]):
            sys.argv = ["phasebound", *argv]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                try:
                    runpy.run_module("phasebound.cli", run_name="__main__")
                except SystemExit as exc:
                    status = exc.code
            report.append([status, json.loads(out.getvalue())["regime"], NUMPY_LOADED])
        import phasebound
        star = {}
        exec("from phasebound import *", star)
        del star["__builtins__"]
        public = {name: getattr(phasebound, name) for name in phasebound.__all__}
        defined = sorted(name for name, obj in public.items() if name == "__version__"
                         or getattr(sys.modules[obj.__module__], name) is obj is star[name])
        try:
            phasebound.no_such_name
            unknown = "resolved"
        except AttributeError:
            unknown = "AttributeError"
        print(json.dumps([report, sorted(star), sorted(phasebound.__all__), defined,
                          set(phasebound.__all__) <= set(dir(phasebound)), unknown]))
        """).replace("NUMPY_LOADED", NUMPY_LOADED)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, check=True)
    report, star, public, defined, listed, unknown = json.loads(proc.stdout)
    assert report == [[0, regime, []] for regime in
                      ("gaussian", "truncated", "ball", "truncated", "ball",
                       "gaussian", "truncated", "truncated", "truncated", "ball",
                       "ball", "gaussian", "truncated")]
    assert all((tmp_path / f"{i}.csv").stat().st_size > 0 for i in range(len(extremals)))
    # every public name resolves to its defining module's object
    assert star == public == defined and len(public) > 40 and listed
    assert unknown == "AttributeError"


def test_no_module_imports_scipy_linalg():
    # no module names scipy at all: assembled spectra take numpy's eigvalsh
    # and a real Gram product, the oracles integrate on core's panel rule,
    # and the disc spectra and Hardy basis are finite sums and recurrences
    import ast
    from pathlib import Path

    import phasebound
    for path in Path(phasebound.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), path.name


def test_bound_at_large_beta_and_dimension(run_cli):
    # --beta 1e300 printed an OverflowError traceback, and --d 400 printed
    # the cancellation noise 1.65e-14 as the bound
    def bound_of(out):
        return float(dict(line.split(None, 1) for line in out.splitlines())["bound"])

    code, out, err = run_cli("bound", "--transform", "wavelet", "--p", "2",
                             "--A", "1", "--B", "1", "--beta", "1e300")
    assert code == 0 and err == "" and bound_of(out) == 1.0
    code, out, err = run_cli("bound", "--p", "2", "--A", "1", "--B", "1", "--d", "400")
    # the closed form at d = 400 in 120-digit mpmath: 6.2230152778580615095e-61
    assert code == 0 and err == ""
    assert bound_of(out) == pytest.approx(6.2230152778580615e-61, rel=1e-10, abs=0.0)
    # 2 beta p overflows, or the bound is below the normal doubles: a one-line error, exit 1
    for args in (["--transform", "wavelet", "--beta", "1.7e308"], ["--d", "3000"],
                 ["--A", "inf", "--d", "2100"], ["--A", "inf", "--d", "2200"]):
        code, out, err = run_cli("bound", "--p", "2", "--A", "1", "--B", "1", *args)
        assert code == cli.EXIT_USAGE and out == "" and err.count("\n") == 1, args
    # the Gaussian regime's peak level overflowed into a traceback at d = 2100
    code, out, err = run_cli("bound", "--p", "2", "--A", "inf", "--B", "1", "--d", "2000")
    assert code == 0 and err == "" and bound_of(out) == 2.0 ** -1000
    # p = 1 raised G's "dimension must be an integer in [1, 170]" at d = 171
    code, out, err = run_cli("bound", "--p", "1", "--A", "1", "--B", "1", "--d", "171")
    assert code == 0 and err == ""
    assert bound_of(out) == pytest.approx(2.0814332769403149e-28, rel=1e-10, abs=0.0)
    code, out, err = run_cli("bound", "--p", "1", "--A", "1", "--B", "1", "--d", "2100")
    assert code == cli.EXIT_USAGE and out == "" and err.count("\n") == 1
