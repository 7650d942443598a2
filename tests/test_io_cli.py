"""CSV interchange and the command-line interface."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from phasebound import cli
from phasebound.core import RadialProfile, WeightField
from phasebound.errors import InvalidInputError
from phasebound.io import (read_disc_profile, read_halfplane_field,
                           read_radial_profile, read_weight_field,
                           sniff_weight_file, write_disc_profile,
                           write_halfplane_field, write_radial_profile,
                           write_spectrum, write_weight_field)
from phasebound.verify import random_field
from phasebound.wavelet import DiscProfile, HalfPlaneGrid, HalfPlaneField


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


def test_radial_profile_roundtrip(tmp_path):
    prof = RadialProfile.sampled([0.5, 1.0, 2.0], [3.0, 2.0, 0.5])
    path = tmp_path / "prof.csv"
    write_radial_profile(prof, path)
    assert sniff_weight_file(path) == "radial"
    back = read_radial_profile(path)
    assert back.knots == pytest.approx(prof.knots)
    assert back.knot_values == pytest.approx(prof.knot_values)


def test_disc_profile_roundtrip(tmp_path):
    prof = DiscProfile.sampled([0.1, 0.5, 0.9], [2.0, 1.0, 0.25])
    path = tmp_path / "disc.csv"
    write_disc_profile(prof, path)
    assert sniff_weight_file(path) == "disc"
    back = read_disc_profile(path)
    assert back.knot_values == pytest.approx(prof.knot_values)


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
    from phasebound.wavelet import HyperbolicDisc, hyperbolic_disc_mask
    grid = HalfPlaneGrid.logarithmic(-0.8, 0.8, 96, 0.42, 2.1, 96)
    path = tmp_path / "disc_mask.csv"
    write_halfplane_field(hyperbolic_disc_mask(HyperbolicDisc(1j, 1.0), grid), path)
    code, out, _ = run_cli("norm", "--weight", str(path), "--p", "1",
                           "--basis", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # a hyperbolic disc attains its bound, up to the grid's resolution
    assert payload["norm"] == pytest.approx(G_beta(1.0, 1.0), abs=1e-3)
    assert payload["ratio"] == pytest.approx(1.0, abs=1e-2)


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
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["suite"] == "rearrange" and payload["failed"] == 0
    assert all({"name", "ok"} <= set(d) for d in payload["details"])

    cfg = tmp_path / "pb.cfg"
    cfg.write_text("format = json\nB = 1.0\n")
    code, out, _ = run_cli("--config", str(cfg), "bound", "--transform", "gabor",
                           "--p", "2", "--A", "1")
    assert code == 0
    assert json.loads(out)["bound"] == pytest.approx(0.6967347, abs=1e-6)


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
], ids=["extra-column", "field-rows-out-of-order", "halfplane-uneven-x",
        "halfplane-one-row"])
def test_cli_norm_rejects_malformed_file(tmp_path, capsys, make):
    path = make(tmp_path)
    assert cli.main(["norm", "--weight", str(path), "--p", "2", "--basis", "8"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no phasebound module loads scipy at import: quadrature oracles,
    # special functions and assembled spectra load it on first use
    code = ("import sys, phasebound; before = " + SCIPY_LOADED + "; "
            "import phasebound.cli; print(before + " + SCIPY_LOADED + ")")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_numpy_only_commands_leave_scipy_unloaded(tmp_path):
    # bound, extremal and symmetrize run on numpy alone; one child runs them
    # all through cli.main and reports the scipy modules loaded after each
    field = tmp_path / "field.csv"
    write_weight_field(random_field(np.random.default_rng(5), n=16, half_width=2.0), field)
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
    ]
    code = ("import contextlib, io, json, sys\n"
            "from phasebound.cli import main\n"
            "report = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        status = main(argv)\n"
            "    report.append([status, out.getvalue(), " + SCIPY_LOADED + "])\n"
            "print(json.dumps(report))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert len(report) == len(commands)
    for argv, (status, _, loaded) in zip(commands, report):
        assert status == 0 and loaded == [], argv
    # the bound commands cover d = 1, the truncated d = 3 level, the d = 2 ball
    assert [json.loads(out)["regime"] for _, out, _ in report[:3]] == [
        "truncated", "truncated", "ball"]
