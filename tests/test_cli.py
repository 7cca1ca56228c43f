"""End-to-end command-line behavior and exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import derivfit.cli
import derivfit.design
import derivfit.selection
import derivfit.simulation
from derivfit.basis import BasisSpec, Family
from derivfit.cli import main
from derivfit.dataio import load_csv
from derivfit.errors import SingularGramError
from derivfit.estimators import evaluate_fit
from derivfit.selection import fit_derivative_1


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def sample_csv(tmp_path):
    path = tmp_path / "sample.csv"
    assert run_cli("simulate", "--function", "b2", "--n", "400",
                   "--sigma", "0.25", "--seed", "11", "--out", str(path)) == 0
    return path


def test_simulate_writes_loadable_sample(sample_csv):
    sample = load_csv(sample_csv)
    assert sample.n == 400


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("simulate", "--function", "b1", "--n", "50", "--seed", "3", "--out", str(a))
    run_cli("simulate", "--function", "b1", "--n", "50", "--seed", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_fit_both_strategies(sample_csv, tmp_path):
    for strategy in ("1", "2"):
        out = tmp_path / f"curve{strategy}.csv"
        code = run_cli("fit", str(sample_csv), "--family", "hermite", "--m", "3",
                       "--strategy", strategy, "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,estimate"
        assert len(lines) == 513


def test_fit_truncate_flag(sample_csv, tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli("fit", str(sample_csv), "--family", "hermite", "--m", "12",
                   "--truncate", "--out", str(out))
    assert code == 0
    values = np.array([float(l.split(",")[1]) for l in
                       out.read_text().splitlines()[1:]])
    # heavily conditioned dimension at n=400 fails the gate -> zero curve
    assert np.all(values == 0.0)


def test_fit_truncate_keeps_a_curve_that_passes_the_gate(tmp_path):
    # at n = 5000, hermite m = 3 passes the truncation gate and m = 4 fails it
    data = tmp_path / "large.csv"
    assert run_cli("simulate", "--function", "b3", "--n", "5000", "--seed", "7",
                   "--out", str(data)) == 0
    curves = {}
    for m in ("3", "4"):
        for flags in ([], ["--truncate"]):
            out = tmp_path / f"curve-m{m}{len(flags)}.csv"
            assert run_cli("fit", str(data), "--family", "hermite", "--m", m, *flags,
                           "--out", str(out)) == 0
            curves[m, bool(flags)] = out
    assert curves["3", True].read_bytes() == curves["3", False].read_bytes()
    plain, truncated = (np.loadtxt(curves["4", t], delimiter=",", skiprows=1)[:, 1]
                        for t in (False, True))
    assert np.any(plain != 0.0) and np.all(truncated == 0.0)


def test_fit_truncate_computes_no_collection_constant(sample_csv, tmp_path, monkeypatch):
    # the truncation gate reads L(m+p), the Gram's eigenvalues and n only;
    # the collection constant d (a histogram over the sample) is not needed
    def refuse(x):
        raise AssertionError("fit --truncate computed the collection constant")
    for module in (derivfit.design, derivfit.selection, derivfit.cli):
        monkeypatch.setattr(module, "default_d_constant", refuse, raising=False)
    for m in ("1", "12"):
        assert run_cli("fit", str(sample_csv), "--family", "hermite", "--m", m,
                       "--truncate", "--out", str(tmp_path / "curve.csv")) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["fit", "--m", "3"],
                                  ["select", "--m-max", "3", "--sigma2", "0.1"]])
def test_a_laguerre_point_at_huge_x_is_a_zero_row(tmp_path, capsys, argv):
    # beyond x = 746 every Laguerre value is zero; at x = 1e308 the
    # recurrence's 2x overflowed, and inf * 0 made the row NaN, so the fit
    # failed as "singular" and the selection kept m = 1 only
    rng = np.random.default_rng(4)
    x, y = rng.uniform(0.0, 3.0, 8), rng.standard_normal(8)
    outputs = []
    for far in (1e4, 1e308):
        x[5] = far
        data, curve = tmp_path / f"far{far:g}.csv", tmp_path / f"curve{far:g}.csv"
        np.savetxt(data, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
                   header="x,y", comments="")
        assert run_cli(argv[0], str(data), "--family", "laguerre", *argv[1:],
                       "--grid-lo", "0", "--grid-hi", "3", "--out", str(curve)) == 0
        captured = capsys.readouterr()
        outputs.append((captured.out.replace(str(curve), "c.csv"), captured.err,
                        curve.read_bytes()))
    assert outputs[0] == outputs[1] and outputs[1][1] == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["fit", "--m", "3"],
                                  ["select", "--m-max", "3", "--sigma2", "0.1"]])
def test_a_half_trig_point_at_huge_x_keeps_its_phase(tmp_path, capsys, argv):
    # on [0, 1], u = x - a = 1e308 is an even integer, so its phase is that
    # of x = 0; pi u overflowed to inf and made the row NaN, so the fit
    # failed as "singular" and the selection warned and kept m = 1
    rng = np.random.default_rng(4)
    x, y = rng.uniform(0.0, 1.0, 8), rng.standard_normal(8)
    outputs = []
    for far in (0.0, 1e308):
        x[5] = far
        data, curve = tmp_path / f"far{far:g}.csv", tmp_path / f"curve{far:g}.csv"
        np.savetxt(data, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
                   header="x,y", comments="")
        assert run_cli(argv[0], str(data), "--family", "half-trig", *argv[1:],
                       "--interval", "0,1", "--grid-lo", "0", "--grid-hi", "1",
                       "--out", str(curve)) == 0
        captured = capsys.readouterr()
        outputs.append((captured.out.replace(str(curve), "c.csv"), captured.err,
                        curve.read_bytes()))
    assert outputs[0] == outputs[1] and outputs[1][1] == ""


@pytest.mark.parametrize("command", ["fit", "select"])
def test_a_half_trig_interval_of_overflowing_width_is_a_usage_error(sample_csv, tmp_path,
                                                                     capsys, monkeypatch,
                                                                     command):
    # its width is inf, so every row was zero and the fit exited 3 as singular
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    m = ["--m", "3"] if command == "fit" else ["--m-max", "3"]
    assert run_cli(command, str(sample_csv), "--family", "half-trig", *m,
                   "--interval=-1e308,1e308", "--out", str(tmp_path / "c.csv")) == 1
    captured = capsys.readouterr()
    assert "invalid HALF_TRIG interval (-1e+308, 1e+308)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["fit", "select"])
def test_negative_interval_end_takes_the_equals_form(sample_csv, tmp_path, capsys,
                                                    command):
    # argparse reads a separate "-1.5,1.5" as an option, so the help text
    # names the "--interval=a,b" form, which reaches the half-trig spec
    with pytest.raises(SystemExit):
        run_cli(command, "--help")
    assert "--interval=a,b" in capsys.readouterr().out
    out = tmp_path / "curve.csv"
    options = ["--m", "3"] if command == "fit" else ["--mode", "reuse", "--m-max", "3"]
    assert run_cli(command, str(sample_csv), "--family", "half-trig", *options,
                   "--interval=-1.5,1.5", "--out", str(out)) == 0
    grid, values = np.loadtxt(out, delimiter=",", skiprows=1).T
    if command == "fit":
        fit = fit_derivative_1(load_csv(sample_csv),
                               BasisSpec(Family.HALF_TRIG, 3, (-1.5, 1.5)))
        assert np.array_equal(values, evaluate_fit(fit, grid))


def test_select_gl_and_reuse(sample_csv, tmp_path):
    out = tmp_path / "gl.csv"
    assert run_cli("select", str(sample_csv), "--family", "hermite",
                   "--mode", "gl", "--sigma2", "0.0625",
                   "--out", str(out)) == 0
    assert out.exists()
    assert run_cli("select", str(sample_csv), "--family", "hermite",
                   "--mode", "reuse") == 0


def test_select_oracle_needs_function(sample_csv):
    assert run_cli("select", str(sample_csv), "--family", "hermite",
                   "--mode", "oracle") == 2
    assert run_cli("select", str(sample_csv), "--family", "hermite",
                   "--mode", "oracle", "--function", "b2") == 0


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("fit", "--family", "hermite")  # missing data/m/out
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc2:
        run_cli("nonsense")
    assert exc2.value.code == 1


def test_data_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,oops\n")
    assert run_cli("fit", str(bad), "--family", "hermite", "--m", "2",
                   "--out", str(tmp_path / "c.csv")) == 2
    assert run_cli("fit", str(tmp_path / "missing.csv"), "--family", "hermite",
                   "--m", "2", "--out", str(tmp_path / "c.csv")) == 2


@pytest.mark.parametrize("data, line", [
    ("x,ý\n1,2\n0.5,3\n".encode("cp1252"), 1), (b"x,y\n1,2\n\xff\xfe,3\n", 3),
    (b"\xef\xbb", 1), (b"\xef", 1)],
    ids=["cp1252-header", "bad-byte-line-3", "cut-off-mark", "cut-off-mark-1-byte"])
def test_a_file_that_is_not_utf8_is_a_data_error_on_its_line(tmp_path, capsys, data, line):
    sample, config = tmp_path / "sample.csv", tmp_path / "bench.cfg"
    sample.write_bytes(data)
    config.write_bytes(b"".join(b"# " + row + b"\n" for row in data.splitlines())
                       + b"functions = b2\nfamilies = hermite\nn = 250\n"
                         b"repetitions = 1\nmode = oracle\n")
    for argv in (["select", str(sample), "--family", "hermite"],
                 ["bench", "--config", str(config)]):
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert f"line {line}: the file is not UTF-8" in capsys.readouterr().err
        assert not out.exists()


def test_numerical_failure_exit_three(tmp_path):
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("x,y\n0.1,1\n0.2,2\n0.3,3\n")
    assert run_cli("fit", str(tiny), "--family", "hermite", "--m", "9",
                   "--out", str(tmp_path / "c.csv")) == 3


def test_bench_and_calibrate(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("functions = b2\nfamilies = hermite\nn = 250\n"
                   "repetitions = 2\nseed = 8\nmode = oracle\n")
    out = tmp_path / "report.csv"
    assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 0
    assert out.read_text().count("\n") == 3  # header + 2 rows
    calib = tmp_path / "calib.csv"
    assert run_cli("calibrate", "--function", "b1", "--family", "half-trig",
                   "--n", "250", "--kappas", "0.5,1", "--seeds", "3",
                   "--out", str(calib)) == 0
    assert calib.exists()


def test_bench_requires_output(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("functions = b2\nfamilies = hermite\nn = 250\nrepetitions = 1\n")
    assert run_cli("bench", "--config", str(cfg)) == 2


@pytest.mark.parametrize("rows", ["1,2\n1,3\n1,4\n1,5\n", "0.5,2\n"],
                         ids=["constant-x", "one-observation"])
def test_degenerate_half_trig_design_is_a_data_error(tmp_path, capsys, rows):
    data = tmp_path / "degenerate.csv"
    data.write_text("x,y\n" + rows)
    for argv in (["select", str(data), "--family", "half-trig"],
                 ["fit", str(data), "--family", "half-trig", "--m", "3",
                  "--out", str(tmp_path / "c.csv")]):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "degenerate design" in err and "--interval" in err
    # an explicit interval makes the design usable again
    assert run_cli("select", str(data), "--family", "half-trig",
                   "--interval", "0,2", "--sigma2", "0.1") == 0


def test_bench_rejects_a_bad_config_before_running(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    out = tmp_path / "report.csv"
    cfg.write_text("functions = b1\nfamilies = hermite\nn = 4000, 60\n"
                   "m_max = 40\nmode = gl\nrepetitions = 20\n")
    assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "n = 60" in err and "m_max = 40" in err
    cfg.write_text("functions = b1\nfamilies = hermite\nn = 250\nm_max = 0\n")
    assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 2
    assert "m_max must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["select", "--family", "half-trig", "--interval", "0,2", "--sigma2", "0.1"],
    ["fit", "--family", "hermite", "--m", "1"],
], ids=["select", "fit"])
def test_untrimmable_output_grid_fails_before_the_fit(tmp_path, capsys, argv):
    data = tmp_path / "one_row.csv"
    data.write_text("x,y\n0.5,1.0\n")
    curve = tmp_path / "c.csv"
    command, *options = argv
    assert run_cli(command, str(data), *options, "--out", str(curve)) == 2
    captured = capsys.readouterr()
    assert "--grid-lo" in captured.err and "--grid-hi" in captured.err
    assert captured.out == ""  # nothing was selected or fitted
    assert not curve.exists()
    # an explicit grid needs no trimming
    assert run_cli(command, str(data), *options, "--out", str(curve),
                   "--grid-lo", "0", "--grid-hi", "1") == 0
    assert len(curve.read_text().splitlines()) == 513


@pytest.mark.parametrize("grid", [[], ["--grid-lo", "0", "--grid-hi", "1"]],
                         ids=["default-grid", "explicit-grid"])
def test_oracle_select_on_one_row_is_a_data_error(tmp_path, capsys, grid):
    data = tmp_path / "one_row.csv"
    data.write_text("x,y\n0.5,1.0\n")
    curve = tmp_path / "c.csv"
    assert run_cli("select", str(data), "--family", "hermite", "--mode", "oracle",
                   "--function", "b1", "--out", str(curve), *grid) == 2
    captured = capsys.readouterr()
    assert "cannot trim 1 observation to the oracle's scoring interval" in captured.err
    assert captured.out == ""
    assert not curve.exists()


def test_select_with_duplicate_x_values(tmp_path, capsys):
    rng = np.random.default_rng(21)
    x = np.round(rng.standard_normal(600), 1)  # about 60 distinct values
    y = x * x + 0.25 * rng.standard_normal(600)
    data = tmp_path / "ties.csv"
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    data.write_text("x,y\n" + rows)
    for family in ("hermite", "half-trig"):
        for mode in ("gl", "reuse", "oracle"):
            assert run_cli("select", str(data), "--family", family, "--mode", mode,
                           "--function", "b3", "--out", str(tmp_path / "c.csv")) == 0
    out = capsys.readouterr().out
    assert out.count("selected m = ") == 4 and out.count("oracle m = ") == 2


def _refuse_caches(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a DesignCache was built")
    monkeypatch.setattr(derivfit.selection.DesignCache, "__init__", refuse)


@pytest.mark.parametrize("strategy, m", [("1", 401), ("2", 400)])
def test_a_fit_wider_than_the_sample_fails_before_any_cache(tmp_path, capsys, monkeypatch,
                                                            sample_csv, strategy, m):
    """A Gram of more columns than points is singular, so a fit that solves
    at m (strategy 1) or m+p (strategy 2) above n = 400 exits 3 at once."""
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    out = tmp_path / "c.csv"
    assert run_cli("fit", str(sample_csv), "--family", "hermite", "--m", str(m),
                   "--strategy", strategy, "--out", str(out)) == 3
    message = "Gram matrix is numerically singular at m=401 (family hermite)"
    assert message in capsys.readouterr().err and not out.exists()
    fit = (derivfit.selection.fit_derivative_1 if strategy == "1"
           else derivfit.selection.fit_derivative_2)
    with pytest.raises(SingularGramError, match=re.escape(message)):
        fit(load_csv(sample_csv), BasisSpec(Family.HERMITE, m))


def _refuse_caches_wider_than_the_sample(monkeypatch):
    build = derivfit.selection.DesignCache.__init__

    def checked(self, sample, family, m_hi, interval=None):
        assert m_hi <= sample.n, f"a DesignCache of {m_hi} columns on {sample.n} points"
        build(self, sample, family, m_hi, interval)
    monkeypatch.setattr(derivfit.selection.DesignCache, "__init__", checked)


@pytest.mark.parametrize("family", ["hermite", "half-trig"])
@pytest.mark.parametrize("mode", ["gl", "reuse", "oracle"])
def test_selectors_build_no_cache_wider_than_the_sample(tmp_path, capsys, monkeypatch,
                                                        sample_csv, mode, family):
    """A Gram of more columns than points is singular, so a grid reaching
    past n = 400 selects as one that stops at n, from a cache of at most
    n columns; a grid given to the library keeps its entries above n,
    none of them a member."""
    _refuse_caches_wider_than_the_sample(monkeypatch)
    capsys.readouterr()  # the fixture's output
    outputs = []
    for m_max in ("400", "450", "1000000"):
        curve = tmp_path / f"c{m_max}.csv"
        assert run_cli("select", str(sample_csv), "--family", family, "--mode", mode,
                       "--sigma2", "0.06", "--function", "b2", "--m-max", m_max,
                       "--out", str(curve)) == 0
        outputs.append((capsys.readouterr().out.replace(str(curve), "c.csv"),
                        curve.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    if mode == "gl" and family == "hermite":
        selection, _ = derivfit.selection.gl_select(load_csv(sample_csv), Family.HERMITE,
                                                    range(1, 451), sigma2=0.06)
        assert list(selection.grid) == list(range(1, 451))
        assert max(selection.members) < 400


def test_the_harness_builds_no_cache_wider_than_the_sample(tmp_path, monkeypatch):
    _refuse_caches_wider_than_the_sample(monkeypatch)
    cfg = tmp_path / "bench.cfg"
    for mode in ("oracle", "gl"):
        reports = []
        for m_max in ("60", "80"):
            out = tmp_path / f"{mode}-{m_max}.csv"
            cfg.write_text(f"functions = b1\nfamilies = hermite, half-trig\nn = 60\n"
                           f"m_max = {m_max}\nmode = {mode}\nsigma2 = 0.06\n"
                           f"repetitions = 2\n")
            assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    ["select", "--family", "half-trig", "--sigma2", "0.06"],
    ["select", "--family", "half-trig", "--mode", "oracle", "--function", "b2"],
    ["fit", "--family", "half-trig", "--m", "5"],
], ids=["select-gl", "select-oracle", "fit"])
def test_one_trimmed_range_per_command(tmp_path, capsys, monkeypatch, sample_csv, argv):
    """The half-trig interval, the output grid and the oracle's scoring
    interval all read one trimmed range of the sample."""
    calls = []
    trim = derivfit.cli.trim_interval

    def counted(sample):
        calls.append(sample.n)
        return trim(sample)
    monkeypatch.setattr(derivfit.cli, "trim_interval", counted)
    monkeypatch.setattr(derivfit.selection, "trim_interval", counted)
    command, *options = argv
    assert run_cli(command, str(sample_csv), *options, "--out", str(tmp_path / "c.csv")) == 0
    assert calls == [400]


@pytest.mark.parametrize("d", ["-1", "0", "nan"])
def test_bad_collection_constant_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                       sample_csv, d):
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    cfg, out = tmp_path / "bench.cfg", tmp_path / "report.csv"
    for mode in ("gl", "reuse"):
        cfg.write_text(f"functions = b1\nfamilies = hermite\nn = 250\nmode = {mode}\n"
                       f"repetitions = 2\nd_constant = {d}\n")
        assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 2
        assert "collection constant d" in capsys.readouterr().err
        assert run_cli("select", str(sample_csv), "--family", "hermite",
                       "--mode", mode, "--d-const", d) == 1
        captured = capsys.readouterr()
        assert "collection constant d" in captured.err and captured.out == ""
    assert not out.exists()
    assert run_cli("calibrate", "--function", "b1", "--n", "250", "--kappas", "1",
                   "--seeds", "2", "--d-const", d) == 1
    captured = capsys.readouterr()
    assert "collection constant d" in captured.err and captured.out == ""


@pytest.mark.parametrize("m_max", ["0", "-2"])
def test_m_max_below_one_fails_before_any_work(capsys, monkeypatch, sample_csv, m_max):
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    for argv in (["select", str(sample_csv), "--family", "hermite"],
                 ["calibrate", "--function", "b1", "--n", "250", "--kappas", "1",
                  "--seeds", "2"]):
        assert run_cli(*argv, "--m-max", m_max) == 1
        captured = capsys.readouterr()
        assert f"m_max must be >= 1, got {m_max}" in captured.err and captured.out == ""


@pytest.mark.parametrize("sigma2", ["-1", "0", "nan", "inf"])
def test_bad_noise_level_fails_before_any_work(capsys, monkeypatch, sample_csv, sigma2):
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    for mode in ("gl", "reuse"):
        assert run_cli("select", str(sample_csv), "--family", "hermite",
                       "--mode", mode, "--sigma2", sigma2) == 1
        captured = capsys.readouterr()
        assert "sigma2 must be positive" in captured.err and captured.out == ""


def test_bad_collection_constant_fails_before_the_noise_estimate(monkeypatch, sample_csv):
    _refuse_caches(monkeypatch)
    with pytest.raises(ValueError, match="collection constant d"):
        derivfit.selection.estimate_sigma2(load_csv(sample_csv), Family.HERMITE,
                                           d_constant=-1)


def test_negative_sigma_fails_before_any_work(tmp_path, capsys, monkeypatch):
    _refuse_caches(monkeypatch)
    out = tmp_path / "sample.csv"
    assert run_cli("simulate", "--n", "50", "--sigma", "-1", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert "sigma must be nonnegative, got sigma = -1.0" in captured.err
    assert captured.out == "" and not out.exists()
    assert run_cli("calibrate", "--function", "b1", "--n", "250", "--kappas", "1",
                   "--seeds", "2", "--sigma", "-0.5") == 1
    captured = capsys.readouterr()
    assert "sigma must be nonnegative, got sigma = -0.5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_sigma_fails_before_any_draw(tmp_path, capsys, monkeypatch, sigma):
    _refuse_caches(monkeypatch)
    message = f"sigma must be finite, got sigma = {sigma}"
    out = tmp_path / "sample.csv"
    assert run_cli("simulate", "--n", "50", "--sigma", sigma, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == "" and not out.exists()

    def refuse(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(derivfit.simulation, "rng_for", refuse)
    assert run_cli("calibrate", "--function", "b1", "--n", "250", "--kappas", "1",
                   "--seeds", "2", "--sigma", sigma) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    cfg, report = tmp_path / "bench.cfg", tmp_path / "report.csv"
    cfg.write_text(f"functions = b1\nfamilies = hermite\nn = 250\nsigma = {sigma}\n"
                   f"repetitions = 2\n")
    assert run_cli("bench", "--config", str(cfg), "--out", str(report)) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == "" and not report.exists()


@pytest.mark.parametrize("mode", ["gl", "reuse"])
def test_no_room_for_the_noise_estimate_fails_before_any_cache(capsys, monkeypatch,
                                                               sample_csv, mode):
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    # 400 observations, m_max 200: estimating sigma2 needs n > 400
    assert run_cli("select", str(sample_csv), "--family", "hermite", "--mode", mode,
                   "--m-max", "200") == 1
    captured = capsys.readouterr()
    message = "needs n > 2*m_max, but n = 400 with m_max = 200"
    assert message in captured.err and captured.out == ""
    with pytest.raises(ValueError, match=re.escape(message)):
        derivfit.selection.estimate_sigma2(load_csv(sample_csv), Family.HERMITE,
                                           m_grid=range(1, 201))


@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_non_finite_comparison_constant_fails_before_any_work(tmp_path, capsys,
                                                              monkeypatch, sample_csv,
                                                              kappa):
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    assert run_cli("select", str(sample_csv), "--family", "hermite",
                   "--kappa0", kappa, "--kappa1", kappa) == 1
    captured = capsys.readouterr()
    assert f"kappa0 = {kappa}, kappa1 = {kappa}" in captured.err and captured.out == ""
    calib = tmp_path / "calib.csv"
    assert run_cli("calibrate", "--function", "b1", "--n", "250", "--kappas",
                   f"{kappa},1", "--seeds", "2", "--out", str(calib)) == 1
    captured = capsys.readouterr()
    assert f"kappa0 = {kappa}, kappa1 = {kappa}" in captured.err and captured.out == ""
    cfg, out = tmp_path / "bench.cfg", tmp_path / "report.csv"
    cfg.write_text(f"functions = b1\nfamilies = hermite\nn = 250\nmode = gl\n"
                   f"repetitions = 2\nkappa0 = {kappa}\nkappa1 = {kappa}\n")
    assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 2
    assert f"kappa0 = {kappa}, kappa1 = {kappa}" in capsys.readouterr().err
    assert not calib.exists() and not out.exists()


@pytest.mark.parametrize("mode", ["gl", "reuse", "oracle"])
def test_tuning_flags_and_keys_are_checked_in_every_mode(tmp_path, capsys, monkeypatch,
                                                         mode):
    _refuse_caches(monkeypatch)
    missing = tmp_path / "never_read.csv"  # checked before the CSV is read
    for flags, message in ((["--kappa0", "5", "--kappa1", "1"],
                            "got kappa0 = 5.0, kappa1 = 1.0"),
                           (["--d-const", "nan", "--sigma2", "-1"],
                            "sigma2 must be positive")):
        assert run_cli("select", str(missing), "--family", "hermite", "--mode", mode,
                       "--function", "b1", *flags) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
    cfg, out = tmp_path / "bench.cfg", tmp_path / "report.csv"
    cfg.write_text(f"functions = b1\nfamilies = hermite\nn = 250\nmode = {mode}\n"
                   f"repetitions = 2\nkappa0 = -1\n")
    assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 2
    assert "got kappa0 = -1.0, kappa1 = 1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_calibrate_without_draws_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                       seeds):
    _refuse_caches(monkeypatch)
    calib = tmp_path / "calib.csv"
    assert run_cli("calibrate", "--function", "b1", "--n", "250", "--kappas", "1",
                   "--seeds", seeds, "--out", str(calib)) == 1
    captured = capsys.readouterr()
    assert f"seeds must be >= 1, got seeds = {seeds}" in captured.err
    assert captured.out == ""
    assert not calib.exists()


def test_calibrate_without_room_for_sigma2_fails_before_any_work(tmp_path, capsys,
                                                                 monkeypatch):
    _refuse_caches(monkeypatch)
    calib = tmp_path / "calib.csv"
    assert run_cli("calibrate", "--function", "b1", "--n", "20", "--m-max", "15",
                   "--seeds", "5", "--kappas", "0.5,1", "--out", str(calib)) == 1
    captured = capsys.readouterr()
    assert "needs n > 2*m_max, but n = 20 with m_max = 15" in captured.err
    assert captured.out == ""
    assert not calib.exists()


@pytest.mark.parametrize("kappas", ["1,1", "1,1.0,2"])
def test_calibrate_with_a_repeated_kappa_fails_before_any_work(tmp_path, capsys,
                                                               monkeypatch, kappas):
    # a repeated value used to sweep twice and count every draw twice in its row
    _refuse_caches(monkeypatch)
    calib = tmp_path / "calib.csv"
    assert run_cli("calibrate", "--function", "b3", "--n", "250", "--seeds", "6",
                   "--kappas", kappas, "--out", str(calib)) == 1
    captured = capsys.readouterr()
    assert "kappas repeats [1.0]: give each value once" in captured.err
    assert captured.out == "" and not calib.exists()


def test_calibrate_with_a_non_numeric_kappa_names_the_flag(tmp_path, capsys, monkeypatch):
    _refuse_caches(monkeypatch)
    calib = tmp_path / "calib.csv"
    assert run_cli("calibrate", "--function", "b3", "--n", "250", "--seeds", "6",
                   "--kappas", "1,abc", "--out", str(calib)) == 1
    captured = capsys.readouterr()
    assert "--kappas expects comma-separated numbers, got '1,abc'" in captured.err
    assert captured.out == "" and not calib.exists()


@pytest.mark.parametrize("line, key", [("kappa0 = abc", "kappa0"), ("n = 250, x", "n")])
def test_a_config_value_that_does_not_parse_names_its_key_and_line(tmp_path, capsys,
                                                                    monkeypatch, line, key):
    _refuse_caches(monkeypatch)
    cfg, out = tmp_path / "bench.cfg", tmp_path / "report.csv"
    cfg.write_text(f"functions = b1\nfamilies = hermite\n{line}\nrepetitions = 2\n")
    assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert f"line 3: bad value for config key {key!r}: " in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("n", ["-3", "0"])
def test_simulate_without_observations_names_n(tmp_path, capsys, monkeypatch, n):
    _refuse_caches(monkeypatch)
    out = tmp_path / "sample.csv"
    assert run_cli("simulate", "--n", n, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert f"the sample size n must be >= 1, got n = {n}" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_grid_points_below_one_fail_before_the_fit(tmp_path, capsys, monkeypatch,
                                                   sample_csv, points):
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    curve = tmp_path / "c.csv"
    for argv in (["fit", "--m", "3"], ["select", "--sigma2", "0.1"]):
        command, *options = argv
        assert run_cli(command, str(sample_csv), "--family", "hermite", *options,
                       "--grid-points", points, "--out", str(curve)) == 1
        captured = capsys.readouterr()
        assert f"--grid-points must be >= 1, got {points}" in captured.err
        assert captured.out == "" and not curve.exists()


@pytest.mark.parametrize("flag", ["--grid-lo", "--grid-hi"])
@pytest.mark.parametrize("bound", ["inf", "-inf", "nan"])
def test_non_finite_grid_bound_fails_before_the_fit(tmp_path, capsys, monkeypatch,
                                                    sample_csv, flag, bound):
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    curve = tmp_path / "c.csv"
    for argv in (["fit", "--m", "3"], ["select", "--sigma2", "0.1"]):
        command, *options = argv
        assert run_cli(command, str(sample_csv), "--family", "hermite", *options,
                       "--grid-lo=-1", "--grid-hi=1", f"{flag}={bound}",
                       "--out", str(curve)) == 1
        captured = capsys.readouterr()
        assert f"{flag} must be finite, got {float(bound)}" in captured.err
        assert captured.out == "" and not curve.exists()


@pytest.mark.parametrize("argv", [
    ["select", "--family", "hermite", "--interval", "5,6"],
    ["select", "--family", "laguerre", "--mode", "reuse", "--interval", "0,1"],
    ["fit", "--family", "legendre", "--m", "3", "--interval", "0,1"],
    ["fit", "--family", "trig", "--m", "3", "--strategy", "2", "--interval", "0,1"],
])
def test_interval_for_a_fixed_support_fails_before_any_work(tmp_path, capsys,
                                                            monkeypatch, sample_csv,
                                                            argv):
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    curve = tmp_path / "c.csv"
    command, *options = argv
    assert run_cli(command, str(sample_csv), *options, "--out", str(curve)) == 1
    captured = capsys.readouterr()
    assert "has a fixed support; interval not allowed" in captured.err
    assert captured.out == "" and not curve.exists()


@pytest.mark.parametrize("interval", ["1,2,3", "1", "a,b"])
def test_malformed_interval_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                             sample_csv, interval):
    _refuse_caches(monkeypatch)
    capsys.readouterr()  # the fixture's output
    curve = tmp_path / "c.csv"
    for argv in (["fit", "--m", "3"], ["select", "--sigma2", "0.1"]):
        command, *options = argv
        assert run_cli(command, str(sample_csv), "--family", "half-trig", *options,
                       "--interval", interval, "--out", str(curve)) == 1
        captured = capsys.readouterr()
        assert f"--interval expects 'a,b', got {interval!r}" in captured.err
        assert captured.out == "" and not curve.exists()


def test_import_leaves_scipy_integrate_unloaded():
    code = "import sys, derivfit.cli; print('scipy.integrate' in sys.modules)"
    src = str(Path(derivfit.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "False"


def test_bench_names_both_exclusion_causes(tmp_path, capsys):
    cfg, out = tmp_path / "bench.cfg", tmp_path / "report.csv"
    # a tiny collection constant empties every repetition's collection
    cfg.write_text("functions = b1\nfamilies = hermite\nn = 250\nmode = gl\n"
                   "repetitions = 2\nd_constant = 1e-12\n")
    assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert ("note: 2 repetitions excluded (singular Gram or empty collection) "
            "in ('b1', 'hermite', 250)") in err


def test_one_parser_serves_every_call_as_fresh_processes_do(tmp_path, capsys, monkeypatch,
                                                            sample_csv):
    calls = [("fit", ["fit", str(sample_csv), "--family", "hermite", "--m", "4",
                      "--strategy", "2", "--truncate", "--out", "fit.csv"]),
             ("select", ["select", str(sample_csv), "--family", "hermite",
                         "--out", "select.csv"]),
             ("select m-max 5", ["select", str(sample_csv), "--family", "hermite",
                                 "--m-max", "5", "--out", "select5.csv"]),
             ("select again", ["select", str(sample_csv), "--family", "hermite",
                               "--out", "select-again.csv"])]
    src = str(Path(derivfit.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    expected = []
    for _, argv in calls:
        result = subprocess.run([sys.executable, "-m", "derivfit.cli", *argv], cwd=fresh,
                                env=env, check=True, capture_output=True, text=True)
        expected.append((result.stdout, (fresh / argv[-1]).read_bytes()))
    monkeypatch.chdir(here)
    capsys.readouterr()  # the fixture's own output
    derivfit.cli.build_parser.cache_clear()
    for (label, argv), (stdout, curve) in zip(calls, expected):
        assert run_cli(*argv) == 0, label
        assert capsys.readouterr().out == stdout, label
        assert (here / argv[-1]).read_bytes() == curve, label
    assert derivfit.cli.build_parser.cache_info().misses == 1
