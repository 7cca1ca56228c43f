"""CSV round trips, malformed-input reporting, config parsing."""

import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import derivfit.cli
import derivfit.dataio
from derivfit.dataio import (_fmt, emit_curve, load_csv, parse_config_text,
                             read_config, save_report, save_sample)
from derivfit.design import Sample
from derivfit.errors import DataFormatError
from derivfit.simulation import ExperimentConfig, run_experiment


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    sample = Sample(x=rng.standard_normal(60), y=rng.standard_normal(60) * 1e-7)
    path = tmp_path / "sample.csv"
    save_sample(sample, path)
    loaded = load_csv(path)
    np.testing.assert_array_equal(loaded.x, sample.x)
    np.testing.assert_array_equal(loaded.y, sample.y)


def test_header_optional(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0.5,1.5\n0.25,2.5\n")
    sample = load_csv(path)
    assert sample.n == 2
    path2 = tmp_path / "header.csv"
    path2.write_text("x,y\n0.5,1.5\n")
    assert load_csv(path2).n == 1


@pytest.mark.parametrize("header", ["", "x,y\n"])
def test_byte_order_mark_is_not_a_header(tmp_path, header):
    # Excel's "CSV UTF-8" starts the file with U+FEFF
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff" + header + "0.5,1.0\n0.7,2.0\n0.9,3.0\n", encoding="utf-8")
    sample = load_csv(path)
    np.testing.assert_array_equal(sample.x, [0.5, 0.7, 0.9])
    np.testing.assert_array_equal(sample.y, [1.0, 2.0, 3.0])


def test_empty_file_reports_line_zero(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError) as err:
        load_csv(path)
    assert err.value.line == 0


def test_extra_column_named(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("x,y,weight\n1,2,3\n")
    with pytest.raises(DataFormatError, match="weight"):
        load_csv(path)
    path2 = tmp_path / "three_numeric.csv"
    path2.write_text("1,2,3\n")
    with pytest.raises(DataFormatError, match="column 3"):
        load_csv(path2)


def test_bad_rows_report_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\noops,3\n")
    with pytest.raises(DataFormatError) as err:
        load_csv(path)
    assert err.value.line == 3
    path2 = tmp_path / "nan.csv"
    path2.write_text("1,nan\n")
    with pytest.raises(DataFormatError) as err2:
        load_csv(path2)
    assert err2.value.line == 1


def test_curve_writer(tmp_path):
    from derivfit.basis import BasisSpec, Family, eval_basis
    from derivfit.estimators import DerivativeFit, Strategy

    spec = BasisSpec(Family.LEGENDRE, 2)
    fit = DerivativeFit(theta=np.array([1.0, 0.0]),
                        strategy=Strategy.PROJECTION_OF_DERIV, spec=spec)
    path = tmp_path / "curve.csv"
    emit_curve(fit, np.array([0.0, 0.5]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,estimate"
    assert len(lines) == 3

    grid = np.linspace(-1, 1, 5)
    path2 = tmp_path / "fit_curve.csv"
    emit_curve(fit, grid, path2)
    rows = path2.read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[1]) for r in rows])
    np.testing.assert_allclose(values, eval_basis(spec, grid)[:, 0])


def test_sample_and_curve_rows_keep_the_bytes_of_the_value_format(tmp_path, monkeypatch):
    # one "%.17g,%.17g" per row is the conversion of _fmt, byte for byte
    values = np.array([0.0, -0.0, 5e-324, 1e308, -1e308, 2.0, 0.1])
    path = tmp_path / "edge.csv"
    save_sample(Sample(x=values, y=values[::-1].copy()), path)
    expected = "".join(f"{_fmt(a)},{_fmt(b)}\n" for a, b in zip(values, values[::-1]))
    assert path.read_bytes() == ("x,y\n" + expected).encode()
    monkeypatch.setattr(derivfit.dataio, "evaluate_fit", lambda fit, grid: values[::-1])
    curve = tmp_path / "curve.csv"
    emit_curve(None, values, curve)
    assert curve.read_bytes() == ("x,estimate\n" + expected).encode()


def test_report_writer_fixed_columns(tmp_path):
    config = ExperimentConfig(functions=("b2",), families=("hermite",),
                              n_list=(250,), repetitions=2, seed=1, mode="oracle")
    report = run_experiment(config)
    path = tmp_path / "report.csv"
    save_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("function,family,n,target,mse100_mean,mse100_std,"
                        "dim_mean,dim_std,K")
    assert len(lines) == 1 + len(report.rows)
    assert lines[1].startswith("b2,hermite,250,b,")


def test_config_parsing():
    text = """
    # comment line
    functions = b1, b3
    families = hermite
    n = 250, 1000
    sigma = 0.25
    repetitions = 7
    seed = 99
    mode = oracle
    output = out.csv
    """
    values = parse_config_text(text)
    assert values["functions"] == ("b1, b3", 3)
    assert values["output"] == ("out.csv", 10)


def test_config_rejects_unknown_key():
    with pytest.raises(DataFormatError, match="unknown config key"):
        parse_config_text("bandwidth = 3")
    with pytest.raises(DataFormatError, match="key = value"):
        parse_config_text("just some words")


def test_config_rejects_a_key_set_twice(tmp_path):
    text = "n = 250\nseed = 3\n# later\nn = 1000\n"
    with pytest.raises(DataFormatError,
                       match=r"line 4: config key 'n' is set twice, on lines 1 and 4"):
        parse_config_text(text)
    path, out = tmp_path / "twice.cfg", tmp_path / "r.csv"
    path.write_text("functions = b2\n" + text)
    with pytest.raises(DataFormatError, match="set twice, on lines 2 and 5"):
        read_config(path)
    assert derivfit.cli.main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_read_config_builds_experiment(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text("functions = b2\nfamilies = hermite\nn = 250\n"
                    "repetitions = 2\nseed = 5\nmode = oracle\noutput = r.csv\n")
    config, out = read_config(path)
    assert config.functions == ("b2",)
    assert config.n_list == (250,)
    assert out == "r.csv"
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = two hundred\n")
    with pytest.raises(DataFormatError):
        read_config(bad)


@pytest.mark.parametrize("sigma2, expected", [("0.05", 0.05), ("estimate", None)])
def test_a_file_setting_every_key_builds_the_keyword_config(tmp_path, sigma2, expected):
    path = tmp_path / "every.cfg"
    path.write_text("functions = b1, b4\nfamilies = hermite, half-trig\nn = 300, 900\n"
                    "sigma = 0.5\nrepetitions = 3\nseed = 11\nm_max = 12\nmode = gl\n"
                    f"kappa0 = 0.5\nkappa1 = 2\nsigma2 = {sigma2}\nd_constant = 3.5\n"
                    "output = r.csv\n")
    config, out = read_config(path)
    assert config == ExperimentConfig(
        functions=("b1", "b4"), families=("hermite", "half-trig"), n_list=(300, 900),
        sigma=0.5, repetitions=3, seed=11, m_max=12, mode="gl", kappa0=0.5,
        kappa1=2.0, sigma2=expected, d_constant=3.5)
    assert out == "r.csv"


def test_read_config_skips_a_byte_order_mark(tmp_path):
    # editors that save "UTF-8 with BOM" start the file with U+FEFF
    path = tmp_path / "bom.cfg"
    path.write_text("\ufefffunctions = b2\nn = 250\noutput = r.csv\n", encoding="utf-8")
    config, out = read_config(path)
    assert config.functions == ("b2",)
    assert config.n_list == (250,)
    assert out == "r.csv"


@pytest.mark.parametrize("bad, message", [
    ("oops,3", "non-numeric"), ("1,2,3", "expected two columns"),
    ("4", "expected two columns"), ("1,inf", "non-finite")])
def test_bad_row_deep_in_a_large_file_reports_its_line(tmp_path, bad, message):
    rng = np.random.default_rng(5)
    rows = [f"{a!r},{b!r}" for a, b in rng.standard_normal((5000, 2)).tolist()]
    rows[4321] = bad
    path = tmp_path / "large.csv"
    path.write_text("x,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataFormatError, match=message) as err:
        load_csv(path)
    assert err.value.line == 4323  # header, then data row 4322


def test_values_parse_as_python_float_parses_them(tmp_path):
    cells = [(" 1.5 ", "\t2"), ("1_0", "-.5"), ("1e-400", "+3E2"), ("  -0", "5.")]
    path = tmp_path / "odd.csv"
    path.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in cells) + "\n  \n")
    sample = load_csv(path)
    np.testing.assert_array_equal(sample.x, [float(a) for a, _ in cells])
    np.testing.assert_array_equal(sample.y, [float(b) for _, b in cells])
    assert np.signbit(sample.x[3])


_GOOD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f" {v:.6g}\t"),
    st.integers(-10 ** 25, 10 ** 25).map(str))
_ODD = st.sampled_from(["1_0", "１２.5", "٣.٥", "inf", "-inf", "nan", "1e400",
                        "-1e400", "4.9e-324", "2e-324", "2 # c", "", " ",
                        "1\xa0", "\u30001.5", "ŷ"])
_PAIR = st.tuples(_GOOD, _GOOD).map(",".join)
_ODD_LINE = st.one_of(
    st.tuples(st.one_of(_GOOD, _ODD), _ODD).map(",".join),
    st.tuples(_ODD, _GOOD).map(",".join),
    _GOOD, st.tuples(_GOOD, _GOOD, _GOOD).map(",".join),
    _PAIR.map(lambda row: row + ","), _PAIR.map(lambda row: row + " # c"),
    st.sampled_from(["", "   ", "\t"]))


@st.composite
def _csv_text(draw):
    """Mostly good two-cell rows, with odd cells, rows of other widths,
    blank lines (leading ones too), characters that str.splitlines (but
    not numpy) breaks a line at, any header (or a header alone), any of
    the three line endings and a byte-order mark."""
    line = st.integers(0, 7).flatmap(lambda i: _PAIR if i else _ODD_LINE)
    lines = draw(st.lists(line, max_size=8))
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        if lines:
            i = draw(st.integers(0, len(lines) - 1))
            cut = draw(st.integers(0, len(lines[i])))
            odd = draw(st.sampled_from("\x1c\x0c\r\x0b\x1d\x1e\x85\u2028\u2029"))
            lines[i] = lines[i][:cut] + odd + lines[i][cut:]
    header = draw(st.sampled_from([[], [], ["x,y"], ["x,y"], ["x,y,z"], ["", "x,y"]]))
    leading = draw(st.sampled_from([[]] * 4 + [[""], ["", "  "]]))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + end.join(leading + header + lines) + draw(st.sampled_from(["", end]))


def _outcome(path):
    try:
        sample = load_csv(path)
    except DataFormatError as err:
        return str(err), err.line
    return sample.x.tobytes(), sample.y.tobytes()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_text())
def test_numpy_reader_agrees_with_the_per_row_checks(tmp_path, text):
    """Every file gives the values, or the error and line, of the per-row
    path, which load_csv takes when numpy's reader rejects the rows."""
    path = tmp_path / "sample.csv"
    path.write_text(text)
    with mock.patch.object(derivfit.dataio.np, "loadtxt", side_effect=ValueError):
        per_row = _outcome(path)
    assert _outcome(path) == per_row


@pytest.mark.parametrize("text, line", [
    ("x,y\n", 1), ("x,y\r\n\r\n  \n", 3), ("\ufeff\nx,y\n", 2),
    ("\n  \n", 0), ("", 0), ("\ufeff", 0)],
    ids=["header", "header-crlf-blanks", "bom-blank-header", "blank", "empty", "bom"])
def test_a_file_without_rows_is_reported_and_numpy_warns_nothing(tmp_path, text, line):
    path = tmp_path / "norows.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
    assert err.value.line == line
    assert ("no data rows" if line else "empty file") in str(err.value)


@pytest.mark.parametrize("data", [b"\xef\xbb", b"\xef", b"\xef\xbb\xbf\xef\xbb"],
                         ids=["cut-off-mark", "one-byte", "mark-then-cut-off-mark"])
def test_a_cut_off_byte_order_mark_is_not_utf8(tmp_path, data):
    """Text mode's decoder drops a cut-off mark at the end of the input, so
    the file would read as empty; it is a byte that does not decode."""
    path = tmp_path / "cut.csv"
    path.write_bytes(data)
    for read in (load_csv, read_config):
        with pytest.raises(DataFormatError) as err:
            read(path)
        assert err.value.line == 1
        assert "the file is not UTF-8: byte 0xef does not decode" in str(err.value)


@pytest.mark.parametrize("blanks, blank", [([20_000], "  "), ([5, 6_000, 13_000], " "),
                                           ([20_000], "\xa0"), ([20_000], "\u3000")],
                         ids=["trailing", "three-mid-file", "trailing-no-break-space",
                              "trailing-ideographic-space"])
def test_a_line_of_blanks_goes_straight_to_the_per_row_checks(tmp_path, blanks, blank):
    """numpy's reader raises at a line of blanks, so such a file is not
    given to it: the per-row checks read it once, with the plain file's
    values.  A blank outside ASCII (U+00A0, U+3000) makes such a line too."""
    rng = np.random.default_rng(26)
    sample = Sample(x=rng.standard_normal(20_000), y=rng.standard_normal(20_000))
    path = tmp_path / "blanks.csv"
    save_sample(sample, path)
    lines = path.read_text().splitlines()
    for row in reversed(blanks):  # after data row `row`
        lines.insert(row + 1, blank)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(derivfit.dataio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        loaded = load_csv(path)
    assert loadtxt.call_count == 0
    np.testing.assert_array_equal(loaded.x, sample.x)
    np.testing.assert_array_equal(loaded.y, sample.y)


def _load_from_its_path(path, monkeypatch):
    """load_csv(path), failing unless numpy's reader alone reads it, from the path."""
    def refuse(lines):
        raise AssertionError("a plain file went to the per-row checks")
    monkeypatch.setattr(derivfit.dataio, "_checked_rows", refuse)
    with mock.patch.object(derivfit.dataio.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        loaded = load_csv(path)
    assert [call.args[0] for call in loadtxt.call_args_list] == [path]
    return loaded


def test_a_plain_large_file_is_read_from_its_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(24)
    sample = Sample(x=rng.standard_normal(20_000), y=rng.standard_normal(20_000))
    path = tmp_path / "large.csv"
    save_sample(sample, path)
    loaded = _load_from_its_path(path, monkeypatch)
    np.testing.assert_array_equal(loaded.x, sample.x)
    np.testing.assert_array_equal(loaded.y, sample.y)


def test_a_non_ascii_header_is_read_from_its_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(25)
    sample = Sample(x=rng.standard_normal(20_000), y=rng.standard_normal(20_000))
    path = tmp_path / "large.csv"
    save_sample(sample, path)
    path.write_text(path.read_text().replace("x,y", "x,ŷ", 1), encoding="utf-8")
    loaded = _load_from_its_path(path, monkeypatch)
    np.testing.assert_array_equal(loaded.x, sample.x)
    np.testing.assert_array_equal(loaded.y, sample.y)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_loads_the_values_of_a_regular_file(tmp_path):
    text = "x,y\n" + "".join(f"{i / 7!r},{-i / 3!r}\n" for i in range(3000))
    regular, fifo = tmp_path / "regular.csv", tmp_path / "pipe.csv"
    regular.write_text(text)
    expected = load_csv(regular)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    # a second open of the pipe would block: numpy must not read it at all
    with mock.patch.object(derivfit.dataio.np, "loadtxt",
                           side_effect=AssertionError(f"numpy reopened {fifo}")) as loadtxt:
        loaded = load_csv(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    loadtxt.assert_not_called()
    np.testing.assert_array_equal(loaded.x, expected.x)
    np.testing.assert_array_equal(loaded.y, expected.y)


@pytest.mark.parametrize("line, key, message", [
    ("m_max = 0", "m_max", "m_max must be >= 1, got 0"),
    ("mode = fast", "mode", "unknown selection mode 'fast'"),
    ("repetitions = 0", "repetitions", "repetitions must be >= 1"),
    ("sigma = -1", "sigma", "sigma must be nonnegative, got sigma = -1.0")])
def test_a_rejected_config_value_names_its_key_and_line(tmp_path, capsys, line, key,
                                                       message):
    path, out = tmp_path / "bad.cfg", tmp_path / "r.csv"
    path.write_text(f"functions = b1\nfamilies = hermite\n{line}\nn = 250\n")
    with pytest.raises(DataFormatError) as err:
        read_config(path)
    assert err.value.line == 3
    assert str(err.value) == f"line 3: bad value for config key {key!r}: {message}"
    assert derivfit.cli.main(["bench", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"derivfit: data error: {err.value}\n"
    assert not out.exists()


def test_a_rejection_of_several_keys_names_each(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("functions = b1\nkappa1 = 2\nn = 250\nkappa0 = 5\nseed = 3\n")
    with pytest.raises(DataFormatError) as err:
        read_config(path)
    assert err.value.line == 2
    assert str(err.value).startswith(
        "line 2: bad values for config keys 'kappa1' (line 2), 'kappa0' (line 4): "
        "require finite 0 < kappa0 <= kappa1")
