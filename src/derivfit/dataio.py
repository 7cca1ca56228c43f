"""CSV input/output and the flat key=value config format.

Samples are two-column CSV (optional "x,y" header) and configs flat
"key = value" lines, both UTF-8; a leading byte-order mark, as Excel's
"CSV UTF-8" and some editors write, is skipped.  Floats are written with
17 significant digits so a save/load round trip is exact.  Report and
curve writers use a fixed column order so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .design import Sample
from .errors import DataFormatError
from .estimators import DerivativeFit, evaluate_fit
from .simulation import CalibrationRow, ExperimentConfig, ExperimentReport

REPORT_COLUMNS = ("function", "family", "n", "target", "mse100_mean",
                  "mse100_std", "dim_mean", "dim_std", "K")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def load_csv(path) -> Sample:
    """Read a two-column numeric CSV; header row "x,y" is optional.

    The data lines go through numpy's C reader, whose values are
    float()'s bit for bit; it is stricter than float() (no "1_0", no
    non-ASCII digits), so a file it rejects, one whose rows do not come
    out as two cells each, or one with a non-finite value goes through
    the per-row checks, which name the offending line.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    start = 0
    header: list[str] | None = None
    for i, line in enumerate(lines):
        if line.strip():
            first = [c.strip() for c in line.split(",")]
            if not _is_numeric_row(first):
                header = first
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
    x, y = values.T.copy()
    return Sample(x=x, y=y)


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


def save_sample(sample: Sample, path) -> None:
    rows = ["x,y"]
    rows += [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(sample.x, sample.y)]
    Path(path).write_text("\n".join(rows) + "\n")


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
    rows = ["x,estimate"]
    rows += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(grid, evaluate_fit(fit, grid))]
    Path(path).write_text("\n".join(rows) + "\n")


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


def parse_config_text(text: str) -> dict:
    """The config's key -> value strings; a malformed line, an unknown
    key or a key set twice raises DataFormatError with its line."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
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
        if key in lines:
            raise DataFormatError(f"config key {key!r} is set twice, on lines "
                                  f"{lines[key]} and {i + 1}", line=i + 1)
        values[key], lines[key] = val.strip(), i + 1
    return values


def read_config(path) -> tuple[ExperimentConfig, str | None]:
    """Parse an experiment config file.  Returns (config, output path)."""
    values = parse_config_text(Path(path).read_text(encoding="utf-8-sig"))
    try:
        config = ExperimentConfig(**{field: parse(values[key])
                                     for key, (field, parse) in _CONFIG_FIELDS.items()
                                     if key in values})
    except ValueError as exc:
        raise DataFormatError(f"bad config value: {exc}") from exc
    return config, values.get("output")
