"""CSV input/output and the flat key=value config format.

Samples are two-column CSV (optional "x,y" header) and configs flat
"key = value" lines, both UTF-8; a leading byte-order mark, as Excel's
"CSV UTF-8" and some editors write, is skipped.  A plain sample file
(ASCII, with the line breaks numpy's reader and str.splitlines share)
is parsed by numpy straight from its path; any other file, and any file
numpy rejects, goes through its list of lines and, where a row fails,
the per-row checks that name the line (load_csv).  Floats are written with
17 significant digits so a save/load round trip is exact.  Report and
curve writers use a fixed column order so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .design import Sample
from .errors import DataFormatError
from .estimators import DerivativeFit, evaluate_fit
from .simulation import CalibrationRow, ExperimentConfig, ExperimentReport

REPORT_COLUMNS = ("function", "family", "n", "target", "mse100_mean",
                  "mse100_std", "dim_mean", "dim_std", "K")


# str.splitlines also breaks a line at these; numpy's reader does not
_OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
_NON_BLANK = re.compile(r"\S")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def load_csv(path) -> Sample:
    """Read a two-column numeric CSV; header row "x,y" is optional.

    A plain regular file (ASCII with no \\x0b, \\x0c, \\x1c, \\x1d or
    \\x1e, so that its only line breaks are \\n, \\r and \\r\\n, where
    numpy's reader and str.splitlines agree) goes to numpy's C reader
    straight from its path, past its leading blank lines and header; the
    values are float()'s bit for bit and are kept if they come out as
    N >= 1 rows of two finite values.  Every other file, a header of more
    than two cells or without rows, and every result not kept, go through
    the line list: numpy's reader on the non-blank data lines, and where
    it rejects them, their rows are not two cells each or a value is not
    finite, the per-row checks, which name the offending line.
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    values = _plain_rows(path, text)
    if values is None:
        values = _line_rows(text.splitlines())
    x, y = values.T.copy()
    return Sample(x=x, y=y)


def _plain_rows(path, text: str) -> np.ndarray | None:
    """A plain regular file's rows from numpy's reader on the path, or
    None where the line list must decide (see load_csv)."""
    if not text.isascii() or any(c in text for c in _OTHER_BREAKS):
        return None
    first = _NON_BLANK.search(text)
    if first is None:
        return None
    end = text.find("\n", first.start())  # read_text made every line break \n
    end = len(text) if end < 0 else end
    head = text[:end].splitlines()  # the blank lines, then the first non-blank one
    header = _header(head[-1])
    if header is not None and (len(header) > 2 or not _NON_BLANK.search(text, end)):
        return None  # the line list raises the extra column or the missing rows
    if not Path(path).is_file():  # a pipe cannot be read twice
        return None
    skip = len(head) if header is not None else len(head) - 1
    try:
        values = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip,
                            encoding="utf-8-sig")
    except ValueError:
        return None
    if values.shape[1] != 2 or not np.isfinite(values).all():  # numpy's no rows is (0, 1)
        return None
    return values


def _line_rows(lines: list[str]) -> np.ndarray:
    """The rows of the file's lines: numpy's reader on the non-blank data
    lines, or the per-row checks where it rejects them."""
    start = 0
    header: list[str] | None = None
    for i, line in enumerate(lines):
        if line.strip():
            header = _header(line)
            if header is not None:
                start = i + 1
            break
    else:
        raise DataFormatError("empty file", line=0)
    if header is not None and len(header) > 2:
        raise DataFormatError(
            f"expected two columns (x,y); extra column {header[2]!r}", line=start)
    data = [line for line in lines[start:] if line.strip()]
    values = None
    if data:  # numpy warns on no rows; _checked_rows names that error
        try:
            values = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a cell numpy rejects, or a row of another width
            pass
    if values is None or values.shape != (len(data), 2) or not np.isfinite(values).all():
        values = _checked_rows(lines, start, header)
    return values


def _header(line: str) -> list[str] | None:
    """The cells of the first non-blank line if it is a header, else None."""
    cells = [c.strip() for c in line.split(",")]
    return None if _is_numeric_row(cells) else cells


def _checked_rows(lines: list[str], start: int, header: list[str] | None) -> np.ndarray:
    """The data rows as an (n, 2) array, converted one row at a time; the
    first bad row raises a DataFormatError with its line number."""
    rows: list[tuple[float, float]] = []
    for i in range(start, len(lines)):
        line = lines[i].strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            if len(cells) > 2:
                name = header[2] if header and len(header) > 2 else f"column {len(cells)}"
                raise DataFormatError(f"expected two columns, got {len(cells)} "
                                      f"(extra {name})", line=i + 1)
            raise DataFormatError(f"expected two columns, got {len(cells)}", line=i + 1)
        try:
            x, y = float(cells[0]), float(cells[1])
        except ValueError:
            raise DataFormatError(f"non-numeric value in row: {line!r}", line=i + 1) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataFormatError("non-finite value rejected", line=i + 1)
        rows.append((x, y))
    if not rows:
        raise DataFormatError("no data rows", line=0 if not lines else len(lines))
    return np.array(rows)


def _is_numeric_row(cells: list[str]) -> bool:
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True


def _save_pairs(path, header: str, xs, values) -> None:
    """A header line, then one "x,value" row per pair in _fmt's digits
    ("%.17g" is the same conversion as format(v, ".17g"))."""
    rows = ["%.17g,%.17g\n" % pair for pair in zip(xs, values)]
    Path(path).write_text(header + "\n" + "".join(rows))


def save_sample(sample: Sample, path) -> None:
    _save_pairs(path, "x,y", sample.x, sample.y)


def save_report(report: ExperimentReport, path) -> None:
    rows = [",".join(REPORT_COLUMNS)]
    for r in report.rows:
        rows.append(",".join([
            r.function, r.family, str(r.n), r.target,
            _fmt(r.mse100_mean), _fmt(r.mse100_std),
            _fmt(r.dim_mean), _fmt(r.dim_std), str(r.k)]))
    Path(path).write_text("\n".join(rows) + "\n")


def save_calibration(rows: list[CalibrationRow], path) -> None:
    out = ["kappa,median_ratio,mean_ratio,q90_ratio,median_dim"]
    for r in rows:
        out.append(",".join([_fmt(r.kappa), _fmt(r.median_ratio),
                             _fmt(r.mean_ratio), _fmt(r.q90_ratio),
                             _fmt(r.median_dim)]))
    Path(path).write_text("\n".join(out) + "\n")


def emit_curve(fit: DerivativeFit, grid, path) -> None:
    """Write the fit's (x, estimate) pairs on the grid, for plotting."""
    _save_pairs(path, "x,estimate", grid, evaluate_fit(fit, grid))


# ---------------------------------------------------------------------------
# Config files: one "key = value" per line, lists comma-separated
# ---------------------------------------------------------------------------

def _names(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(","))


# key -> (ExperimentConfig field, parser of the value string)
_CONFIG_FIELDS = {
    "functions": ("functions", _names),
    "families": ("families", _names),
    "n": ("n_list", lambda text: tuple(int(s) for s in text.split(","))),
    "sigma": ("sigma", float),
    "repetitions": ("repetitions", int),
    "seed": ("seed", int),
    "m_max": ("m_max", int),
    "mode": ("mode", str),
    "kappa0": ("kappa0", float),
    "kappa1": ("kappa1", float),
    "sigma2": ("sigma2", lambda text: None if text == "estimate" else float(text)),
    "d_constant": ("d_constant", float),
}
_CONFIG_KEYS = {*_CONFIG_FIELDS, "output"}


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """The config's key -> (value string, 1-based line); a malformed line,
    an unknown key or a key set twice raises DataFormatError with its line."""
    entries: dict[str, tuple[str, int]] = {}
    for i, raw in enumerate(text.splitlines()):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"expected 'key = value', got {raw!r}", line=i + 1)
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise DataFormatError(f"unknown config key {key!r}", line=i + 1)
        if key in entries:
            raise DataFormatError(f"config key {key!r} is set twice, on lines "
                                  f"{entries[key][1]} and {i + 1}", line=i + 1)
        entries[key] = val.strip(), i + 1
    return entries


def read_config(path) -> tuple[ExperimentConfig, str | None]:
    """Parse an experiment config file.  Returns (config, output path).

    A value that does not parse, or that ExperimentConfig rejects, is a
    DataFormatError naming its key (each key, for a rejection of several)
    and line."""
    entries = parse_config_text(Path(path).read_text(encoding="utf-8-sig"))
    fields = {}
    for key, (field, parse) in _CONFIG_FIELDS.items():
        if key in entries:
            value, line = entries[key]
            try:
                fields[field] = parse(value)
            except ValueError as exc:
                raise DataFormatError(f"bad value for config key {key!r}: {exc}",
                                      line=line) from exc
    try:
        config = ExperimentConfig(**fields)
    except ValueError as exc:
        raise _rejection(exc, fields, entries) from exc
    return config, entries["output"][0] if "output" in entries else None


def _rejection(exc: ValueError, fields: dict, entries) -> DataFormatError:
    """ExperimentConfig's rejection, naming the keys it involves with their
    lines: each key of the file whose default, in its place, lifts the
    rejection or changes it."""
    named = []
    for key, (field, _) in _CONFIG_FIELDS.items():
        if field not in fields:
            continue
        try:
            ExperimentConfig(**{f: v for f, v in fields.items() if f != field})
        except ValueError as other:
            if str(other) == str(exc):
                continue
        named.append((entries[key][1], key))
    if not named:
        return DataFormatError(f"bad config value: {exc}")
    named.sort()
    if len(named) == 1:
        (line, key), = named
        return DataFormatError(f"bad value for config key {key!r}: {exc}", line=line)
    keys = ", ".join(f"{key!r} (line {line})" for line, key in named)
    return DataFormatError(f"bad values for config keys {keys}: {exc}", line=named[0][0])
