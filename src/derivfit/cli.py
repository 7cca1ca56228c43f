"""Command-line interface.

Subcommands: simulate (write a synthetic sample), fit (fixed-dimension
curve), select (data-driven / oracle / reuse dimension choice), bench
(Monte Carlo experiment from a config file), calibrate (selector constant
sweep).  Exit codes: 0 success, 1 usage, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import dataio, simulation
from .basis import parse_family
from .design import Sample, sample_spec
from .errors import DataFormatError, EmptyCollectionError, SingularGramError
from .estimators import Strategy
from .selection import (EVAL_GRID_POINTS, KAPPA, _check_tuning, default_m_grid,
                        fit_derivative, gl_select, oracle_select, reuse_select)

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


Range = tuple[float, float]


def _parse_interval(text: str | None) -> Range | None:
    if text is None:
        return None
    try:  # a count other than two fails the unpacking, a non-number float()
        lo, hi = (float(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"--interval expects 'a,b', got {text!r}") from None
    return lo, hi


def _trim(sample: Sample, purpose: str) -> Range:
    """The trimmed design range; a one-observation sample is a data error."""
    if sample.n < 2:
        raise DataFormatError(f"cannot trim {sample.n} observation to {purpose}")
    return sample.trimmed


def _grid_for(args, sample: Sample) -> np.ndarray:
    """The output grid; resolve it before any fit, so a bad one fails first."""
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be >= 1, got {args.grid_points}")
    lo, hi = args.grid_lo, args.grid_hi
    for flag, bound in (("--grid-lo", lo), ("--grid-hi", hi)):
        if bound is not None and not math.isfinite(bound):
            raise ValueError(f"{flag} must be finite, got {bound}")
    if lo is None or hi is None:
        tlo, thi = _trim(sample, "an output grid; pass --grid-lo and --grid-hi")
        lo = tlo if lo is None else lo
        hi = thi if hi is None else hi
    return np.linspace(lo, hi, args.grid_points)


def _cmd_simulate(args) -> int:
    fn = simulation.TEST_FUNCTIONS[args.function]
    rng = simulation.rng_for(args.seed, 0, 0)
    sample = simulation.generate_sample(fn, args.n, args.sigma, rng)
    dataio.save_sample(sample, args.out)
    print(f"wrote {args.n} observations of {args.function} "
          f"(sigma={args.sigma}) to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    sample = dataio.load_csv(args.data)
    family = parse_family(args.family)
    spec = sample_spec(sample, family, args.m, _parse_interval(args.interval))
    grid = _grid_for(args, sample)
    fit = fit_derivative(sample, spec, Strategy(args.strategy), args.truncate)
    dataio.emit_curve(fit, grid, args.out)
    status = " (truncated to zero)" if fit.truncated_to_zero else ""
    print(f"strategy-{args.strategy} derivative fit at m={args.m}{status} -> {args.out}")
    return 0


def _cmd_select(args) -> int:
    # the tuning flags are checked in every mode, before the CSV is read
    _check_tuning(args.sigma2, args.d_const, args.kappa0, args.kappa1)
    sample = dataio.load_csv(args.data)
    family = parse_family(args.family)
    m_grid = default_m_grid(family, sample.n, args.m_max)
    # one spec before any cache, so a bad --interval fails first
    interval = sample_spec(sample, family, m_grid[-1], _parse_interval(args.interval)).interval
    if args.mode == "oracle":
        if args.function is None:
            raise DataFormatError("--mode oracle needs --function for the true target")
        lo, hi = eval_iv = _trim(sample, "the oracle's scoring interval")
        if not (math.isfinite(hi - lo) and lo < hi):
            raise DataFormatError(f"the oracle's scoring interval, the x values' 3%-97% "
                                  f"range [{lo!r}, {hi!r}], has no finite width > 0")
    grid = _grid_for(args, sample) if args.out else None
    if args.mode == "gl":
        selection, fit = gl_select(sample, family, m_grid, args.sigma2, args.d_const,
                                   interval, args.kappa0, args.kappa1)
        m_hat = selection.m_hat
        print(f"selected m = {m_hat} from members {selection.members}")
    elif args.mode == "reuse":
        m_hat, fit = reuse_select(sample, family, m_grid, sigma2=args.sigma2,
                                  d_constant=args.d_const, interval=interval)
        print(f"selected m = {m_hat} (dimension chosen for the regression fit)")
    else:  # oracle
        fn = simulation.TEST_FUNCTIONS[args.function]
        m_hat, err, fit = oracle_select(sample, family, m_grid, fn.b_prime, eval_iv,
                                        interval=interval)
        print(f"oracle m = {m_hat} (squared L2 error {err:.6g})")
    if args.out:
        dataio.emit_curve(fit, grid, args.out)
        print(f"curve -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    config, out_from_file = dataio.read_config(args.config)
    out = args.out or out_from_file
    if out is None:
        raise DataFormatError("no output path (pass --out or set 'output =' in the config)")
    report = simulation.run_experiment(config)
    dataio.save_report(report, out)
    for cell, count in sorted(report.excluded.items()):
        print(f"note: {count} repetitions excluded (singular Gram or empty "
              f"collection) in {cell}",
              file=sys.stderr)
    print(f"wrote {len(report.rows)} report rows to {out}")
    return 0


def _cmd_calibrate(args) -> int:
    try:
        kappas = [float(s) for s in args.kappas.split(",")]
    except ValueError:
        raise ValueError(f"--kappas expects comma-separated numbers, "
                         f"got {args.kappas!r}") from None
    rows = simulation.calibrate_kappa(
        args.function, args.family, args.n, kappas, seeds=args.seeds,
        sigma=args.sigma, seed=args.seed, d_constant=args.d_const,
        m_max=args.m_max)
    if args.out:
        dataio.save_calibration(rows, args.out)
    for r in rows:
        print(f"kappa={r.kappa:<8g} median ratio={r.median_ratio:8.3f}  "
              f"mean={r.mean_ratio:8.3f}  q90={r.q90_ratio:8.3f}  "
              f"median dim={r.median_dim:.1f}")
    best = simulation.best_kappa(rows)
    print(f"best kappa by median ratio: {best}")
    return 0


@functools.cache  # built on first use, once per process; parsing leaves it as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="derivfit",
                     description="Orthogonal-series regression derivative estimation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    curve = _Parser(add_help=False)  # the flags fit and select share
    curve.add_argument("--interval", help="half-trig rescaling interval 'a,b'; "
                       "write --interval=a,b when a is negative")
    curve.add_argument("--grid-lo", type=float)
    curve.add_argument("--grid-hi", type=float)
    curve.add_argument("--grid-points", type=int, default=EVAL_GRID_POINTS)

    p = sub.add_parser("simulate", help="write a synthetic sample CSV")
    p.add_argument("--function", choices=sorted(simulation.TEST_FUNCTIONS), default="b1")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--sigma", type=float, default=simulation.ExperimentConfig.sigma)
    p.add_argument("--seed", type=int, default=simulation.ExperimentConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", parents=[curve],
                       help="fixed-dimension derivative fit, curve CSV out")
    p.add_argument("data", help="two-column x,y CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--strategy", type=int, choices=(1, 2), default=1)
    p.add_argument("--truncate", action="store_true",
                   help="zero the fit when the conditioning gate fails")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("select", parents=[curve], help="choose the dimension from the data")
    p.add_argument("data")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=("oracle", "gl", "reuse"), default="gl")
    p.add_argument("--kappa0", type=float, default=KAPPA)
    p.add_argument("--kappa1", type=float, default=KAPPA)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--d-const", type=float)
    p.add_argument("--m-max", type=int)
    p.add_argument("--function", choices=sorted(simulation.TEST_FUNCTIONS),
                   help="true target for --mode oracle")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("bench", help="run a Monte Carlo experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("calibrate", help="sweep the selector constant on simulated data")
    p.add_argument("--function", choices=sorted(simulation.TEST_FUNCTIONS), default="b3")
    p.add_argument("--family", default="hermite")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--kappas", default="0.05,0.1,0.2,0.5,1,2,4")
    p.add_argument("--seeds", type=int, default=simulation.CALIBRATION_SEEDS)
    p.add_argument("--sigma", type=float, default=simulation.ExperimentConfig.sigma)
    p.add_argument("--seed", type=int, default=simulation.ExperimentConfig.seed)
    p.add_argument("--d-const", type=float)
    p.add_argument("--m-max", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, OSError) as exc:
        print(f"derivfit: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (SingularGramError, EmptyCollectionError) as exc:
        print(f"derivfit: numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except ValueError as exc:
        print(f"derivfit: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
