"""Digest the command-line outputs of a fixed corpus, one line per command.

Each command runs as ``python -m derivfit.cli ...`` in a fresh temporary
directory, with ``PYTHONPATH`` set to the source directory under test.  A
line holds the command's exit code and the sha256 of its stdout, of its
stderr and of each file it writes (``-`` for a file it did not write),
with the temporary directory's path stripped from stdout and stderr.  Two
source trees that behave the same on the corpus print identical lines:

    python3 tools/output_digest.py [--src DIR]    # default: src next to tools/

The corpus: ``simulate`` b1-b4 at n = 700 (seed 7); ``fit`` on the b2
sample over the five families x m in {3, 8} x strategy 1/2 x with and
without ``--truncate``, and hermite at m in {18, 19}, strategy 1/2, on
either side of its first singular dimension (19); ``select``
gl/reuse/oracle x hermite/half-trig on the b3 sample, and gl/reuse x
hermite/half-trig there with sigma^2, kappa0, kappa1 and d given
(``TUNING``); ``bench`` in oracle, gl and reuse mode over b1-b4 x
hermite, half-trig x n in {250, 1000} x 4 repetitions (seed 7), and in
gl mode with sigma2 = 0.0625;
``calibrate`` b3/hermite at n = 1000 with 6 seeds and b1/half-trig (whose
basis rescales to each draw's trimmed range) at n = 250 with 4 seeds;
and, past one block of the basis evaluation (``basis.EVAL_BLOCK``
points), ``simulate`` b3 at n = 5000 (seed 7) with ``select`` gl/oracle
x hermite/half-trig, a hermite ``fit`` at m = 12 and hermite ``fit
--truncate`` at m = 3, strategy 1/2, on it.  Every ``--truncate`` fit on
the n = 700 sample fails the truncation gate and prints the zero curve;
hermite m = 3 at n = 5000 is the corpus's fit that passes it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FUNCTIONS = ("b1", "b2", "b3", "b4")
FAMILIES = ("trig-odd", "half-trig", "laguerre", "hermite", "legendre")
MODES = ("gl", "reuse", "oracle")
LARGE_N = "5000"  # above basis.EVAL_BLOCK, so the values span several blocks
BENCH_CONFIG = """functions = b1, b2, b3, b4
families = hermite, half-trig
n = 250, 1000
repetitions = 4
seed = 7
mode = {mode}
"""
# select's tuning flags at values other than their defaults
TUNING = ["--sigma2", "0.0625", "--kappa0", "0.5", "--kappa1", "2", "--d-const", "1e5"]


def corpus() -> list[list[tuple[str, list[str], list[str]]]]:
    """Phases of (label, CLI arguments, output files); a phase reads only
    what earlier phases wrote, so its commands may run in any order."""
    simulate = [(f"simulate {f}", ["simulate", "--function", f, "--n", "700",
                                   "--seed", "7", "--out", f"{f}.csv"], [f"{f}.csv"])
                for f in FUNCTIONS]
    simulate.append(("simulate b3 large", ["simulate", "--function", "b3", "--n", LARGE_N,
                                           "--seed", "7", "--out", "large.csv"],
                     ["large.csv"]))
    rest = []
    for family in FAMILIES:
        for m in ("3", "8"):
            for strategy in ("1", "2"):
                for truncate in ([], ["--truncate"]):
                    tag = "-truncate" if truncate else ""
                    out = f"fit-{family}-m{m}-s{strategy}{tag}.csv"
                    rest.append((f"fit {family} m={m} strategy={strategy}{tag}",
                                 ["fit", "b2.csv", "--family", family, "--m", m,
                                  "--strategy", strategy, *truncate, "--out", out],
                                 [out]))
    for m in ("18", "19"):  # the first singular hermite dimension of b2.csv is 19
        for strategy in ("1", "2"):
            out = f"fit-hermite-m{m}-s{strategy}.csv"
            rest.append((f"fit hermite m={m} strategy={strategy}",
                         ["fit", "b2.csv", "--family", "hermite", "--m", m,
                          "--strategy", strategy, "--out", out], [out]))
    for mode in MODES:
        for family in ("hermite", "half-trig"):
            out = f"select-{mode}-{family}.csv"
            rest.append((f"select {mode} {family}",
                         ["select", "b3.csv", "--family", family, "--mode", mode,
                          "--function", "b3", "--out", out], [out]))
    for mode in ("gl", "reuse"):  # sigma^2, kappa and d given: 9 and 13 members
        for family in ("hermite", "half-trig"):
            out = f"select-tuned-{mode}-{family}.csv"
            rest.append((f"select tuned {mode} {family}",
                         ["select", "b3.csv", "--family", family, "--mode", mode,
                          *TUNING, "--out", out], [out]))
    for mode in ("gl", "oracle"):
        for family in ("hermite", "half-trig"):
            out = f"select-large-{mode}-{family}.csv"
            rest.append((f"select large {mode} {family}",
                         ["select", "large.csv", "--family", family, "--mode", mode,
                          "--function", "b3", "--out", out], [out]))
    rest.append(("fit large hermite m=12", ["fit", "large.csv", "--family", "hermite",
                                            "--m", "12", "--out", "fit-large.csv"],
                 ["fit-large.csv"]))
    for strategy in ("1", "2"):  # m = 3 passes the truncation gate at this n
        out = f"fit-large-m3-s{strategy}-truncate.csv"
        rest.append((f"fit large hermite m=3 strategy={strategy}-truncate",
                     ["fit", "large.csv", "--family", "hermite", "--m", "3",
                      "--strategy", strategy, "--truncate", "--out", out], [out]))
    for mode in (*MODES, "gl-sigma2"):
        rest.append((f"bench {mode}", ["bench", "--config", f"bench-{mode}.cfg",
                                       "--out", f"bench-{mode}.csv"],
                     [f"bench-{mode}.csv"]))
    rest.append(("calibrate b3 hermite", ["calibrate", "--function", "b3", "--family",
                                          "hermite", "--n", "1000", "--seeds", "6",
                                          "--out", "calibrate.csv"], ["calibrate.csv"]))
    rest.append(("calibrate b1 half-trig", ["calibrate", "--function", "b1", "--family",
                                            "half-trig", "--n", "250", "--seeds", "4",
                                            "--out", "calibrate-ht.csv"],
                 ["calibrate-ht.csv"]))
    return [simulate, rest]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(label: str, argv: list[str], outputs: list[str], workdir: Path,
           env: dict[str, str]) -> str:
    proc = subprocess.run([sys.executable, "-m", "derivfit.cli", *argv], cwd=workdir,
                          env=env, capture_output=True)
    strip = str(workdir).encode()
    parts = [f"{label}: exit {proc.returncode}",
             f"stdout {_sha(proc.stdout.replace(strip, b'<tmp>'))}",
             f"stderr {_sha(proc.stderr.replace(strip, b'<tmp>'))}"]
    for name in outputs:
        path = workdir / name
        parts.append(f"{name} {_sha(path.read_bytes()) if path.exists() else '-'}")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the derivfit package")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    with tempfile.TemporaryDirectory(prefix="derivfit-digest-") as tmp:
        workdir = Path(tmp)
        for mode in MODES:
            (workdir / f"bench-{mode}.cfg").write_text(BENCH_CONFIG.format(mode=mode))
        (workdir / "bench-gl-sigma2.cfg").write_text(BENCH_CONFIG.format(mode="gl")
                                                     + "sigma2 = 0.0625\n")
        with ThreadPoolExecutor(max_workers=2) as pool:
            for phase in corpus():
                for line in pool.map(lambda c: digest(*c, workdir, env), phase):
                    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
