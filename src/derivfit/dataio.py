"""CSV input/output and the flat key=value config format.

Samples are two-column CSV (optional "x,y" header) and configs flat
"key = value" lines, both UTF-8; a leading byte-order mark, as Excel's
"CSV UTF-8" and some editors write, is skipped, and a byte that does
not decode is a data error on its line.  A sample has two readers
(load_csv): numpy's, straight from the path of a plain regular file (one
whose only line breaks are those numpy's reader and str.splitlines
share, and with no line of blanks that numpy would raise at), and the
per-row checks, which name the bad line, for every other file and every
file numpy rejects.  Floats are written with 17 significant digits so a
save/load round trip is exact.  Report and curve writers use a fixed
column order so identical runs produce byte-identical files.
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
_OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_NON_BLANK = re.compile(r"\S")
# a line of blanks that starts with a space or a tab; _plain_rows runs it
# only on a text that holds one, which two searches for one character
# tell far faster than the regex (memchr against a step per line)
_BLANK_LINE = re.compile(r"\n[ \t][^\S\n]*(?![^\n])")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _read_text(path) -> str:
    """The file's text: UTF-8, a leading byte-order mark skipped, \\r and
    \\r\\n read as \\n.  A byte that does not decode raises a
    DataFormatError naming its line; so does a cut-off mark (\\xef or
    \\xef\\xbb alone), which the utf-8-sig decoder of text mode drops at
    the end of the input without an error, and the utf-8 decoder does not."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:  # a ValueError: cli.main's usage exit
        before = exc.object[:exc.start].decode("utf-8")  # exc.object: the bytes decoded
        line = len((before + "?").splitlines())  # "?" holds the bad byte's place
        raise DataFormatError(f"the file is not UTF-8: byte {exc.object[exc.start]:#04x} "
                              "does not decode", line=line) from None


def load_csv(path) -> Sample:
    """Read a two-column numeric CSV; header row "x,y" is optional.

    Two readers.  A plain regular file, one with none of the characters
    str.splitlines breaks a line at and numpy's reader does not (\\x0b,
    \\x0c, \\x1c, \\x1d, \\x1e, \\x85, \\u2028, \\u2029) and no line of
    blanks that starts with a space or a tab past the first line, at
    which numpy's reader would raise, goes to numpy's C reader straight
    from its path, past its leading blank lines and header; its values
    are float()'s bit for bit and are kept if they come out as N >= 1
    rows of two finite values.  Every other file, a header without rows,
    and every result not kept, go through the per-row checks, which name
    the offending line.  Both find the header the same way (_data_start).
    """
    text = _read_text(path)
    values = _plain_rows(path, text)
    if values is None:
        values = _checked_rows(text.splitlines())
    x, y = values.T.copy()
    return Sample(x=x, y=y)


def _data_start(lines: list[str]) -> int:
    """The index of the first data line: the first non-blank line, or the
    one after it if that is a header.  An empty file raises a
    DataFormatError on line 0, a header of more than two cells on its line."""
    for i, line in enumerate(lines):
        if line.strip():
            cells = [c.strip() for c in line.split(",")]
            if _is_numeric_row(cells):
                return i
            if len(cells) > 2:
                raise DataFormatError(
                    f"expected two columns (x,y); extra column {cells[2]!r}", line=i + 1)
            return i + 1
    raise DataFormatError("empty file", line=0)


def _plain_rows(path, text: str) -> np.ndarray | None:
    """A plain regular file's rows from numpy's reader on the path, or
    None where the per-row checks must decide (see load_csv)."""
    # numpy's reader keeps lines that str.splitlines breaks, and raises at a
    # line of blanks
    if (any(c in text for c in _OTHER_BREAKS)
            or (" " in text or "\t" in text) and _BLANK_LINE.search(text)):
        return None
    first = _NON_BLANK.search(text)
    end = text.find("\n", first.start()) if first else -1  # read_text made \r, \r\n into \n
    end = len(text) if end < 0 else end
    head = text[:end].splitlines()  # the blank lines, then the first non-blank one
    start = _data_start(head)
    if start == len(head) and not _NON_BLANK.search(text, end):
        return None  # a header without rows: numpy would warn, the per-row checks name it
    if not Path(path).is_file():  # a pipe cannot be read twice
        return None
    try:
        values = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=start,
                            encoding="utf-8-sig")
    except ValueError:
        return None
    if values.shape[1] != 2 or not np.isfinite(values).all():  # numpy's no rows is (0, 1)
        return None
    return values


def _checked_rows(lines: list[str]) -> np.ndarray:
    """The data rows as an (n, 2) array, converted one row at a time; the
    first bad row raises a DataFormatError with its line number."""
    rows: list[tuple[float, float]] = []
    for i in range(_data_start(lines), len(lines)):
        line = lines[i].strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            extra = f" (extra column {len(cells)})" if len(cells) > 2 else ""
            raise DataFormatError(f"expected two columns, got {len(cells)}{extra}",
                                  line=i + 1)
        try:
            x, y = float(cells[0]), float(cells[1])
        except ValueError:
            raise DataFormatError(f"non-numeric value in row: {line!r}", line=i + 1) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataFormatError("non-finite value rejected", line=i + 1)
        rows.append((x, y))
    if not rows:
        raise DataFormatError("no data rows", line=len(lines))
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
    entries = parse_config_text(_read_text(path))
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
