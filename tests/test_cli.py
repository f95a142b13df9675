"""End-to-end CLI behavior: subcommands, file formats, exit codes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zerodetect
from zerodetect.cli import build_parser, main
from zerodetect.coherence import (
    STAT_HEADER, coherence_report, read_coherence_csv, stoc_estimate, stoc_probe,
)
from zerodetect.core import RngSpec, read_cmat, write_cmat, write_csv
from zerodetect.experiments import ExperimentConfig, build_matrix
from zerodetect.matrices import build_frame, load_matrix


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def kerdock_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mats") / "k.cmat"
    assert run("gen-matrix", "--family", "kerdock", "--m", "3", "--out", str(path)) == 0
    return path


def test_no_arguments_exits_one(capsys):
    assert run() == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert run("frobnicate") == 1
    assert "ERROR BadValue" in capsys.readouterr().err


def test_help_exits_zero():
    assert run("--help") == 0


def test_gen_matrix_kerdock_header_and_reload(kerdock_file):
    text = kerdock_file.read_text().splitlines()
    assert text[0] == "16 256"
    assert text[1].startswith("# meta:") and "family=kerdock" in text[1]
    entries, meta = read_cmat(kerdock_file)
    assert entries.shape == (16, 256)
    assert meta["poly_z4"] == "1,3,2,0,1"
    # worst-case coherence survives the text round trip
    g = np.abs(entries.conj().T @ entries)
    np.fill_diagonal(g, 0.0)
    assert abs(g.max() - 0.25) < 1e-10


# the CMAT bytes of these frames are frozen: a faster writer must reproduce them
@pytest.mark.parametrize("m, extra, digest", [
    ("3", ["--group-size", "8"], "f5b350cc7bc13497687a0c3924535c5bcefcd68b148495f82d5e37d86f5e9c5e"),
    ("5", [], "b309b7cd41875dda10cad3eb2e8b331da8110e2f47bc6e1943ae4b2c60066c9c"),
], ids=["m3-group8", "m5"])
def test_gen_matrix_kerdock_cmat_digests(tmp_path, m, extra, digest):
    out = tmp_path / "k.cmat"
    assert run("gen-matrix", "--family", "kerdock", "--m", m, *extra, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_FRAMES = {"kerdock-m3": (["--family", "kerdock", "--m", "3"], dict(kerdock_m=3)),
           "bernoulli-16x64-seed3": (["--family", "bernoulli", "--rows", "16", "--cols", "64",
                                      "--seed", "3"],
                                     dict(matrix_family="bernoulli", rows=16, cols=64,
                                          matrix_seed=3))}


@pytest.mark.parametrize("group_size", [None, 8], ids=["ungrouped", "groups8"])
@pytest.mark.parametrize("frame", list(_FRAMES))
def test_gen_matrix_files_load_as_the_frame_factory_builds(tmp_path, frame, group_size):
    # gen-matrix and simulate build frames through one factory, build_frame
    flags, config = _FRAMES[frame]
    extra = [] if group_size is None else ["--group-size", str(group_size)]
    out = tmp_path / "f.cmat"
    assert run("gen-matrix", *flags, *extra, "--out", str(out)) == 0
    family = config.get("matrix_family", "kerdock")
    built, meta = build_frame(family, config.get("kerdock_m"), config.get("rows"),
                              config.get("cols"), config.get("matrix_seed", 0), group_size)
    configured = build_matrix(ExperimentConfig(**config, group_size=group_size))
    loaded = load_matrix(out)
    assert read_cmat(out)[1] == meta
    for m in (built, configured):
        assert m.matrix.tobytes() == loaded.matrix.tobytes()
        assert m.groups == loaded.groups
    assert (loaded.groups is None) == (group_size is None)


def test_gen_matrix_validation(tmp_path, capsys):
    out = str(tmp_path / "x.cmat")
    assert run("gen-matrix", "--family", "kerdock", "--out", out) == 1
    assert run("gen-matrix", "--family", "kerdock", "--m", "2", "--out", out) == 1
    assert "ERROR InvalidSpec" in capsys.readouterr().err
    assert run("gen-matrix", "--family", "bernoulli", "--rows", "4", "--out", out) == 1
    capsys.readouterr()
    assert run("gen-matrix", "--family", "kerdock", "--m", "3", "--rows", "4", "--out", out) == 1
    assert "ERROR BadValue" in capsys.readouterr().err


def test_frame_arguments_the_family_never_reads_are_rejected(tmp_path, capsys):
    # a Bernoulli frame has no degree, and a built Kerdock frame reads no file
    out = str(tmp_path / "x.cmat")
    assert run("gen-matrix", "--family", "bernoulli", "--rows", "4", "--cols", "8", "--m", "3",
               "--out", out) == 1
    assert "ERROR BadValue" in capsys.readouterr().err
    cfg = tmp_path / "k.cfg"
    cfg.write_text(f"matrix_family = kerdock\nmatrix_file = {tmp_path / 'absent.cmat'}\n"
                   "k_grid = 1\ntheta_grid = 1\ntrials = 2\n")
    assert run("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 1
    assert "ERROR BadValue" in capsys.readouterr().err


def test_gen_matrix_bernoulli_seed_determinism(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.cmat", "b.cmat", "c.cmat"))
    for path, seed in ((a, "9"), (b, "9"), (c, "10")):
        assert run("gen-matrix", "--family", "bernoulli", "--rows", "8",
                   "--cols", "16", "--seed", seed, "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_detect_identity_inline(tmp_path):
    mat = tmp_path / "eye.cmat"
    write_cmat(mat, np.eye(4))
    out = tmp_path / "res.csv"
    assert run("detect", "--matrix", str(mat), "--yinline", "0,0,3,0",
               "--theta", "2", "--out", str(out)) == 0
    assert out.read_text().splitlines() == ["rank,index,score", "1,1,0", "2,2,0"]


def test_detect_group_mode(tmp_path):
    mat = tmp_path / "eye.cmat"
    write_cmat(mat, np.eye(4), meta={"group_size": "2"})
    out = tmp_path / "res.csv"
    assert run("detect", "--matrix", str(mat), "--yinline", "0,0,1,1",
               "--theta", "1", "--group", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("1,1,")


def test_detect_theta_zero_is_bad_value(tmp_path, capsys):
    mat = tmp_path / "eye.cmat"
    write_cmat(mat, np.eye(4))
    code = run("detect", "--matrix", str(mat), "--yinline", "0,0,3,0",
               "--theta", "0", "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert "ERROR BadValue" in capsys.readouterr().err
    # an integer outside its range names the argument, the range and the value given
    for theta, line in (("0", "ERROR BadValue: --theta must be >= 1, got 0"),
                        ("5", "ERROR ThetaOutOfRange: theta must be in 1..4, got 5")):
        assert run("detect", "--matrix", str(mat), "--yinline", "0,0,3,0",
                   "--theta", theta, "--out", str(tmp_path / "r.csv")) == 1
        assert capsys.readouterr().err == line + "\n"


def test_detect_rejects_non_finite_measurement(tmp_path, capsys):
    mat = tmp_path / "eye.cmat"
    write_cmat(mat, np.eye(4))
    code = run("detect", "--matrix", str(mat), "--yinline", "0,1e999,3,0",
               "--theta", "1", "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert "ERROR BadValue" in capsys.readouterr().err


def test_detect_rejects_measurements_whose_correlations_overflow(kerdock_file, tmp_path):
    # finite entries whose Walsh correlations overflow: one error line, no traceback, and,
    # as a process with numpy's default warning settings, no RuntimeWarning before it
    src = str(Path(zerodetect.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "zerodetect.cli", "detect", "--matrix", str(kerdock_file),
         "--yinline", ",".join(["1e308"] * 16), "--theta", "250", "--out", str(tmp_path / "r.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr == "ERROR BadValue: scores overflow: measurements too large to rank\n"


def test_threads_flag_is_gone(tmp_path, capsys):
    mat = tmp_path / "eye.cmat"
    write_cmat(mat, np.eye(4))
    code = run("detect", "--matrix", str(mat), "--yinline", "0,0,3,0",
               "--theta", "1", "--threads", "2", "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert "--threads" in capsys.readouterr().err


def test_detect_y_from_file_and_length_check(tmp_path, capsys):
    mat = tmp_path / "eye.cmat"
    write_cmat(mat, np.eye(3))
    yfile = tmp_path / "y.txt"
    yfile.write_text("1+0j\n2+0i\n0+0j\n")
    out = tmp_path / "r.csv"
    assert run("detect", "--matrix", str(mat), "--y", str(yfile),
               "--theta", "1", "--out", str(out)) == 0
    yfile.write_text("1+0j 2+0j\n")
    assert run("detect", "--matrix", str(mat), "--y", str(yfile),
               "--theta", "1", "--out", str(out)) == 1
    capsys.readouterr()
    # exactly one of --y and --yinline
    for ys in (["--y", str(yfile), "--yinline", "1,2,0"], []):
        assert run("detect", "--matrix", str(mat), *ys, "--theta", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "ERROR BadValue: provide exactly one of --y FILE or --yinline CSV\n")


def test_missing_matrix_file_is_io_error(tmp_path, capsys):
    code = run("detect", "--matrix", str(tmp_path / "absent.cmat"),
               "--yinline", "1", "--theta", "1", "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "ERROR" in capsys.readouterr().err


def test_malformed_matrix_file_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.cmat"
    bad.write_text("2 2\n1+0j\n")
    code = run("detect", "--matrix", str(bad), "--yinline", "1,0",
               "--theta", "1", "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "ERROR CmatFormatError" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["coherence", "stoc", "detect", "simulate"])
def test_bad_group_size_meta_is_format_error(tmp_path, capsys, cmd):
    bad = tmp_path / "bad.cmat"
    bad.write_text("2 2\n# meta: group_size=abc\n1+0j 0+0j\n0+0j 1+0j\n")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"matrix_family = file\nmatrix_file = {bad}\nk_grid = 1\ntheta_grid = 1\n")
    matrix = ["--matrix", str(bad)]
    args = {
        "coherence": [*matrix, "--out", str(tmp_path / "c.csv")],
        "stoc": [*matrix, "--k", "1", "--eps", "0.5", "--trials", "2",
                 "--out", str(tmp_path / "s.csv")],
        "detect": [*matrix, "--yinline", "1,0", "--theta", "1", "--out", str(tmp_path / "r.csv")],
        "simulate": ["--config", str(cfg), "--out-dir", str(tmp_path / "o")],
    }[cmd]
    assert run(cmd, *args) == 2
    err = capsys.readouterr().err
    assert "ERROR CmatFormatError" in err and "group_size" in err


# y = 4 e1 + e2 + i e3 + e4 on the m = 3 Kerdock frame (16 rows)
_PIPE_ARGS = {
    "coherence": ["--group-size", "8"],
    "detect": ["--theta", "3", "--yinline", "4,1,1j,1" + ",0" * 12],
}


@pytest.mark.parametrize("cmd", sorted(_PIPE_ARGS))
def test_output_to_a_pipe_matches_a_regular_file(kerdock_file, tmp_path, cmd):
    regular = tmp_path / "out.csv"
    args = [cmd, "--matrix", str(kerdock_file), *_PIPE_ARGS[cmd], "--out"]
    assert run(*args, str(regular)) == 0
    read_end, write_end = os.pipe()
    try:
        code = run(*args, f"/dev/fd/{write_end}")
    finally:
        os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        piped = fh.read()
    assert code == 0
    assert piped == regular.read_bytes()


@pytest.mark.parametrize("route", ["coherence", "bounds", "detect", "simulate"])
def test_undecodable_input_is_io_error(kerdock_file, tmp_path, capsys, route):
    report = tmp_path / "c.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--out", str(report)) == 0
    bad = tmp_path / "bad"
    if route == "coherence":
        bad.write_bytes(b"2 2\n# caf\xc3\xa9\n1+0j 0+0j\n0+0j 1+0j\n")
        args = ["--matrix", str(bad), "--out", str(tmp_path / "o.csv")]
    elif route == "bounds":
        bad.write_bytes(report.read_bytes() + "# café\n".encode())
        cfg = tmp_path / "b.cfg"
        cfg.write_text("sigma2 = 500\nn = 16\np = 256\nk = 8\n")
        args = ["--config", str(cfg), "--report", str(bad), "--out", str(tmp_path / "o.csv")]
    elif route == "detect":
        bad.write_bytes("1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 é\n".encode())
        args = ["--matrix", str(kerdock_file), "--y", str(bad), "--theta", "1",
                "--out", str(tmp_path / "o.csv")]
    else:
        bad.write_bytes(b"\xff\xfe" + "matrix_family = bernoulli\n".encode("utf-16-le"))
        args = ["--config", str(bad), "--out-dir", str(tmp_path / "o")]
    assert run(route, *args) == 2
    assert capsys.readouterr().err.startswith("ERROR UnicodeDecodeError")


def test_coherence_report_matches_library(kerdock_file, tmp_path):
    out = tmp_path / "report.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--group-size", "8",
               "--out", str(out)) == 0
    rows = dict(
        line.split(",", 2)[:2] for line in out.read_text().splitlines()[1:]
    )
    assert float(rows["mu"]) == 0.25
    assert abs(float(rows["nu"]) - 1 / 17) < 1e-12
    assert abs(float(rows["mu_group"]) - 1.5455756847831934) < 1e-9


def test_coherence_with_inline_stoc(kerdock_file, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run("coherence", "--matrix", str(kerdock_file),
               "--stoc", "1,0.5,200,e1", "--seed", "3", "--out", str(out)) == 0
    rows = dict(
        line.split(",", 2)[:2] for line in out.read_text().splitlines()[1:]
    )
    assert float(rows["stoc_delta_hat"]) == 0.0
    assert rows["stoc_z_strategy"] == "e1"
    for stoc, message in (("1,0.5,200", "--stoc expects k,eps,trials,zstrategy"),
                          ("1,half,200,e1", "bad --stoc values: '1,half,200,e1'")):
        assert run("coherence", "--matrix", str(kerdock_file), "--stoc", stoc,
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == f"ERROR BadValue: {message}\n"


def test_stoc_subcommand_strategies(kerdock_file, tmp_path):
    out = tmp_path / "stoc.csv"
    for strategy in ("e1", "flat", "gaussian-seeded"):
        assert run("stoc", "--matrix", str(kerdock_file), "--k", "4",
                   "--eps", "0.9", "--trials", "50", "--zstrategy", strategy,
                   "--seed", "5", "--out", str(out)) == 0
        assert "stoc_delta_hat" in out.read_text()


def test_stoc_seed_determinism(kerdock_file, tmp_path):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert run("stoc", "--matrix", str(kerdock_file), "--k", "8",
                   "--eps", "0.4", "--trials", "100", "--zstrategy",
                   "gaussian-seeded", "--seed", "11", "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# StOC requests with k < 1, checked before the probe is built
_BAD_K_REQUESTS = {
    **{f"stoc-{strategy}-k{k}": ["stoc", "--k", k, "--eps", "0.5", "--trials", "2",
                                 "--zstrategy", strategy]
       for strategy in ("e1", "flat", "gaussian-seeded") for k in ("0", "-1")},
    "coherence-stoc": ["coherence", "--stoc", "0,0.5,2,flat"],
}


@pytest.mark.parametrize("name", sorted(_BAD_K_REQUESTS))
def test_stoc_request_with_k_below_one_is_bad_k(kerdock_file, tmp_path, capsys, name):
    out = tmp_path / "s.csv"
    cmd, *rest = _BAD_K_REQUESTS[name]
    assert run(cmd, "--matrix", str(kerdock_file), *rest, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("ERROR BadK")
    assert not out.exists()


def test_stoc_rows_match_the_stoc_subcommand(kerdock_file, tmp_path):
    out = tmp_path / "stoc.csv"
    assert run("stoc", "--matrix", str(kerdock_file), "--k", "8", "--eps", "0.4",
               "--trials", "300", "--zstrategy", "gaussian-seeded", "--seed", "11",
               "--out", str(out)) == 0
    m = load_matrix(kerdock_file)
    z = stoc_probe("gaussian-seeded", 8, 11)
    est = stoc_estimate(m, 8, 0.4, z, 300, RngSpec(11), "gaussian-seeded")
    write_csv(tmp_path / "lib.csv", STAT_HEADER, est.csv_rows())
    assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_bounds_subcommand(kerdock_file, tmp_path):
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--group-size", "8",
               "--out", str(report)) == 0
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(
        "sigma2 = 500\nn = 16\np = 256\nk = 8\ntheta = 4\n"
        "q = 32\nr = 8\n"
        "x_magnitudes = 900, 650, 400, 333, 250, 100, 30, 5\n"
        "group_norms = 2500, 1200, 700, 450\n"
    )
    out = tmp_path / "bounds.csv"
    assert run("bounds", "--config", str(cfg), "--report", str(report),
               "--out", str(out)) == 0
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in out.read_text().splitlines()[1:]}
    assert float(rows["mu"][0]) == 0.25
    # chi-square union bound at the derived threshold is exactly 1/q
    assert abs(float(rows["chi2_bound_at_tau_group"][0]) - 1 / 32) < 1e-12
    assert "epsilon0" in rows and "fdp_bound" in rows and "c3" in rows
    assert rows["gate_mu"][0] in ("0", "1")


def test_bounds_rejects_bad_config(kerdock_file, tmp_path, capsys):
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--out", str(report)) == 0
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("sigma2 = 500\n")  # missing n, p, k
    assert run("bounds", "--config", str(cfg), "--report", str(report),
               "--out", str(tmp_path / "b.csv")) == 1


def test_bounds_rejects_non_finite_magnitudes(kerdock_file, tmp_path, capsys):
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--out", str(report)) == 0
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("sigma2 = 500\nn = 16\np = 256\nk = 2\nx_magnitudes = nan, 1\n")
    out = tmp_path / "b.csv"
    assert run("bounds", "--config", str(cfg), "--report", str(report), "--out", str(out)) == 1
    assert "ERROR BadValue" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["group_norms = nan, 1", "mu0 = inf"])
def test_bounds_rejects_non_finite_constants(kerdock_file, tmp_path, capsys, line):
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--group-size", "8",
               "--out", str(report)) == 0
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(f"sigma2 = 500\nn = 16\np = 256\nk = 8\ntheta = 4\nq = 32\nr = 8\n{line}\n")
    out = tmp_path / "b.csv"
    assert run("bounds", "--config", str(cfg), "--report", str(report), "--out", str(out)) == 1
    assert "ERROR BadValue" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma2", ["-1", "0", "nan", "inf"])
def test_bounds_rejects_sigma2_not_finite_and_positive(kerdock_file, tmp_path, capsys, sigma2):
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--out", str(report)) == 0
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(f"sigma2 = {sigma2}\nn = 16\np = 256\nk = 2\n")
    out = tmp_path / "b.csv"
    assert run("bounds", "--config", str(cfg), "--report", str(report), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR BadValue") and "sigma2" in err
    assert not out.exists()


# the config and report of the CI smoke step's bounds call
_BOUNDS_CFG = (
    "sigma2 = 500\nn = 16\np = 256\nk = 8\ntheta = 4\nq = 32\nr = 8\n"
    "x_magnitudes = 900, 650, 400, 333, 250, 100, 30, 5\n"
    "group_norms = 2500, 1200, 700, 450\n"
)


def _bounds_rows(tmp_path, report, cfg_text=_BOUNDS_CFG):
    cfg, out = tmp_path / "bounds.cfg", tmp_path / "bounds.csv"
    cfg.write_text(cfg_text)
    assert run("bounds", "--config", str(cfg), "--report", str(report), "--out", str(out)) == 0
    return out.read_text().splitlines()


def test_bounds_appends_the_coherence_conditions_last(kerdock_file, tmp_path):
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--group-size", "8",
               "--out", str(report)) == 0
    rows = _bounds_rows(tmp_path, report)
    # the 26 lines before them, header included, are the bytes written before the
    # conditions were added
    head = "\n".join(rows[:-3]) + "\n"
    assert hashlib.sha256(head.encode()).hexdigest() == (
        "6ebde9e0838b0c22e9591600725718f3e24fbdcc89b2edf889b4e47ece76f6dc")
    assert rows[-3:] == [
        "mu0_star,0.58870501125773733,1",  # mu0 defaults to mu0_star, which holds exactly
        "group_mu_bound,0.53715827106895853,0",  # mu_group = 1.55
        "group_nu_bound,2.0345717573562911,1",
    ]
    # no group statistics in the report: no group conditions
    assert run("coherence", "--matrix", str(kerdock_file), "--out", str(report)) == 0
    rows = _bounds_rows(tmp_path, report)
    assert rows[-1] == "mu0_star,0.58870501125773733,1"
    assert not any(row.startswith(("group_mu_bound,", "group_nu_bound,")) for row in rows)
    # mu0 below mu0_star: the property fails; at p = 1 it is not stated
    rows = _bounds_rows(tmp_path, report, "sigma2 = 500\nn = 16\np = 256\nk = 8\nmu0 = 0.5\n")
    assert rows[-1] == "mu0_star,0.58870501125773733,0"
    rows = _bounds_rows(tmp_path, report, "sigma2 = 500\nn = 16\np = 1\nk = 1\nmu0 = 0.5\n")
    assert [row.split(",")[0] for row in rows] == ["quantity", "mu", "nu", "mu0", "tau_element"]


@pytest.mark.parametrize("stat, value", [
    ("mu", "nan"), ("nu", "inf"), ("mu_group", "nan"), ("nu_group", "-inf"),
])
def test_bounds_rejects_non_finite_coherence(kerdock_file, tmp_path, capsys, stat, value):
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--group-size", "8",
               "--out", str(report)) == 0
    lines = [f"{stat},{value}," + line.split(",", 2)[2] if line.startswith(f"{stat},") else line
             for line in report.read_text().splitlines()]
    report.write_text("\n".join(lines) + "\n")
    cfg, out = tmp_path / "bounds.cfg", tmp_path / "b.csv"
    cfg.write_text(_BOUNDS_CFG)
    assert run("bounds", "--config", str(cfg), "--report", str(report), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "ERROR BadValue" in err and f"non-finite {stat}" in err
    assert not out.exists()


def test_bounds_on_an_ungrouped_report_writes_no_group_fdp_rows(kerdock_file, tmp_path):
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--out", str(report)) == 0
    rows = _bounds_rows(tmp_path, report)
    # the group FDP bound needs mu_group; mu in its place would still read as valid
    assert not any(row.startswith(("group_fdp_", "group_success_floor")) for row in rows)
    assert "tau_group,139.31303261245327,1" in rows
    assert run("coherence", "--matrix", str(kerdock_file), "--group-size", "8",
               "--out", str(report)) == 0
    assert "group_fdp_threshold,3729533.2288218401,1" in _bounds_rows(tmp_path, report)


def _edited_report(kerdock_file, tmp_path, stat, row):
    # the group-8 report of the m = 3 frame with the stat row replaced by row
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), "--group-size", "8",
               "--out", str(report)) == 0
    lines = [row if line.startswith(f"{stat},") else line
             for line in report.read_text().splitlines()]
    report.write_text("\n".join(lines) + "\n")
    return report


@pytest.mark.parametrize("stat, row", [
    ("mu", "mu,0.25,,"), ("mu", "mu,0.25,1"), ("mu", "mu,0.25"), ("mu", "mu,x,1,2"),
    ("mu_group", "mu_group,1.5,2,"), ("mu_group", "mu_group,1.5,1.0,2"),
])
def test_bounds_rejects_a_malformed_coherence_row(kerdock_file, tmp_path, capsys, stat, row):
    report = _edited_report(kerdock_file, tmp_path, stat, row)
    cfg, out = tmp_path / "bounds.cfg", tmp_path / "b.csv"
    cfg.write_text(_BOUNDS_CFG)
    assert run("bounds", "--config", str(cfg), "--report", str(report), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "ERROR CmatFormatError" in err and repr(stat) in err
    assert not out.exists()


def test_bounds_rejects_nu_above_mu(kerdock_file, tmp_path, capsys):
    report = _edited_report(kerdock_file, tmp_path, "nu", "nu,0.5,,")
    cfg, out = tmp_path / "bounds.cfg", tmp_path / "b.csv"
    cfg.write_text(_BOUNDS_CFG)
    assert run("bounds", "--config", str(cfg), "--report", str(report), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "ERROR BadValue" in err and "ordering" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--group-size", "8"], ["--stoc", "2,0.5,20,e1"]])
def test_coherence_report_reads_back_as_the_library_report(kerdock_file, tmp_path, extra):
    report = tmp_path / "coh.csv"
    assert run("coherence", "--matrix", str(kerdock_file), *extra, "--out", str(report)) == 0
    m = load_matrix(kerdock_file, 8 if "--group-size" in extra else None)
    assert read_coherence_csv(report) == coherence_report(m)


def test_stoc_group_size_flag_is_gone(kerdock_file, tmp_path, capsys):
    code = run("stoc", "--matrix", str(kerdock_file), "--k", "2", "--eps", "0.5",
               "--trials", "5", "--group-size", "8", "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert "--group-size" in capsys.readouterr().err


def _write_sim_config(path, **extra):
    lines = [
        "matrix_family = bernoulli",
        "rows = 8",
        "cols = 32",
        "matrix_seed = 4",
        "sigma2 = 4.0",
        "amplitude_hi = 10",
        "k_grid = 2,6",
        "theta_grid = 1,4",
        "trials = 15",
        "detectors = zd_ost",
        "master_seed = 71",
    ]
    lines.extend(f"{k} = {v}" for k, v in extra.items())
    path.write_text("\n".join(lines) + "\n")


def test_simulate_writes_report_and_figures(tmp_path):
    cfg = tmp_path / "exp.cfg"
    _write_sim_config(cfg)
    out_dir = tmp_path / "out"
    assert run("simulate", "--config", str(cfg), "--out-dir", str(out_dir),
               "--figure", "2") == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["fig2_manifest.csv", "fig2_zd_ost_theta1.csv",
                     "fig2_zd_ost_theta4.csv", "report.csv"]
    header = (out_dir / "report.csv").read_text().splitlines()[0]
    assert header.startswith("k,theta,theta_grid,detector,trials,fdp_mean")


def test_simulate_byte_identical_across_runs(tmp_path):
    cfg = tmp_path / "exp.cfg"
    _write_sim_config(cfg)
    blobs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        assert run("simulate", "--config", str(cfg), "--out-dir", str(out_dir)) == 0
        blobs.append((out_dir / "report.csv").read_bytes())
    assert blobs[0] == blobs[1]


def _simulate(tmp_path, name, text, *figure):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / name
    assert run("simulate", "--config", str(cfg), "--out-dir", str(out_dir), *figure) == 0
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def test_simulate_file_family_matches_the_built_frame(kerdock_file, tmp_path):
    grid = ("sigma2 = 500\nk_grid = 16,64\ntheta_grid = 1\ndetectors = zd_ost,ost_topk\n"
            "trials = 50\nmaster_seed = 7\n")
    built = _simulate(tmp_path, "built", "matrix_family = kerdock\nkerdock_m = 3\n" + grid,
                      "--figure", "3")
    loaded = _simulate(tmp_path, "loaded", f"matrix_family = file\nmatrix_file = {kerdock_file}\n"
                       + grid, "--figure", "3")
    assert sorted(built) == ["fig3_manifest.csv", "fig3_ost_topk_theta1.csv",
                             "fig3_zd_ost_theta1.csv", "report.csv"]
    assert loaded == built


def test_simulate_file_family_takes_group_size_meta_unless_the_config_sets_one(tmp_path):
    path = tmp_path / "k8.cmat"
    assert run("gen-matrix", "--family", "kerdock", "--m", "3", "--group-size", "8",
               "--out", str(path)) == 0
    grid = ("sigma2 = 500\nk_grid = 4,16\ntheta_grid = 1,2\ndetectors = zd_groth\n"
            "trials = 20\nmaster_seed = 3\n")
    built = {r: _simulate(tmp_path, f"built{r}",
                          f"matrix_family = kerdock\nkerdock_m = 3\ngroup_size = {r}\n" + grid)
             for r in (4, 8)}
    assert built[4] != built[8]
    file_family = f"matrix_family = file\nmatrix_file = {path}\n"
    assert _simulate(tmp_path, "meta", file_family + grid) == built[8]
    assert _simulate(tmp_path, "config", file_family + "group_size = 4\n" + grid) == built[4]


def test_simulate_file_family_group_signals_take_group_size_meta(kerdock_file, tmp_path, capsys):
    path = tmp_path / "k8.cmat"
    assert run("gen-matrix", "--family", "kerdock", "--m", "3", "--group-size", "8",
               "--out", str(path)) == 0
    grid = ("signal_model = group\nsigma2 = 500\nk_grid = 1,4,12\ntheta_grid = 1,2\n"
            "detectors = zd_groth,zd_ost\ntrials = 30\nmaster_seed = 13\n")
    built = _simulate(tmp_path, "built", "matrix_family = kerdock\nkerdock_m = 3\n"
                      "group_size = 8\n" + grid, "--figure", "4a")
    loaded = _simulate(tmp_path, "loaded", f"matrix_family = file\nmatrix_file = {path}\n"
                       + grid, "--figure", "4a")
    # zd_ost takes the matched budget theta * r with r from the file
    assert "fig4a_zd_ost_theta16.csv" in built
    assert loaded == built
    # a file without group_size meta has no groups to draw
    cfg = tmp_path / "nometa.cfg"
    cfg.write_text(f"matrix_family = file\nmatrix_file = {kerdock_file}\n" + grid)
    assert run("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 1
    assert "ERROR NoGroups" in capsys.readouterr().err


def test_simulate_rejects_non_finite_noise(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    _write_sim_config(cfg)
    cfg.write_text(cfg.read_text().replace("sigma2 = 4.0", "sigma2 = nan"))
    assert run("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 1
    assert "sigma2" in capsys.readouterr().err


def test_simulate_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("nonsense = 1\n")
    assert run("simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 1
    assert "ERROR BadValue" in capsys.readouterr().err


def test_verbose_prints_summary(tmp_path, capsys):
    out = str(tmp_path / "k.cmat")
    assert run("gen-matrix", "--family", "kerdock", "--m", "1",
               "--out", out, "--verbose") == 0
    assert "4 x 16" in capsys.readouterr().out


def test_parser_is_built_once_and_calls_share_no_state(kerdock_file, tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = tmp_path / "exp.cfg"
    _write_sim_config(cfg)
    out_dir = str(tmp_path / "o")
    assert run("simulate", "--config", str(cfg), "--out-dir", out_dir,
               "--figure", "2", "--verbose") == 0
    assert "wrote 4 files" in capsys.readouterr().out
    assert run("simulate", "--config", str(cfg), "--out-dir", out_dir) == 0
    assert capsys.readouterr() == ("", "")  # --verbose did not stick
    # a usage error after a good call
    assert run("simulate", "--config", str(cfg)) == 1
    assert capsys.readouterr().err == (
        "ERROR BadValue: the following arguments are required: --out-dir\n")
    # detect after simulate: its own defaults, exactly as from a new parser
    argv = ["detect", "--matrix", str(kerdock_file), *_PIPE_ARGS["detect"],
            "--out", str(tmp_path / "d.csv")]
    assert vars(build_parser().parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))
    assert run(*argv) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "d.csv").read_text().splitlines() == [
        "rank,index,score", "1,39,0.25", "2,103,0.25", "3,167,0.25"]
    assert run() == 1
    assert "usage" in capsys.readouterr().err.lower()
