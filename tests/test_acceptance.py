"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria 4 and 6 run fixed-seed Monte Carlo at desk scale
(a couple of minutes total on a laptop).
"""

import math
import time

import numpy as np
import pytest

from derivfit.basis import BasisSpec, Family, eval_basis, eval_basis_derivative
from derivfit.design import Sample, default_d_constant, trim_interval
from derivfit.dataio import save_report
from derivfit.estimators import evaluate_fit
from derivfit.selection import (DesignCache, _oracle_error_sweep,
                                _whitened, collection_members,
                                default_m_grid, fit_derivative_1,
                                gl_select, penalty_v_hat)
from derivfit.simulation import (ExperimentConfig, TEST_FUNCTIONS, best_kappa,
                                 calibrate_kappa, generate_sample, rng_for,
                                 run_experiment)
from oracles import derivative_recursion, projection_gap, report_row, whitener

SEED = 20250


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def panel_gauss(lo, hi, panels=192, order=12):
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    nodes = np.concatenate([0.5 * (b - a) * base_x + 0.5 * (a + b)
                            for a, b in zip(edges[:-1], edges[1:])])
    weights = np.concatenate([np.full(order, 1.0) * 0.5 * (b - a) * base_w
                              for a, b in zip(edges[:-1], edges[1:])])
    return nodes, weights


def quad_domain(spec):
    if spec.family is Family.HALF_TRIG:
        return spec.interval
    if spec.family is Family.LAGUERRE:
        return 0.0, 2.0 * spec.m + 40.0
    if spec.family is Family.HERMITE:
        return -(math.sqrt(2 * spec.m + 3) + 10), math.sqrt(2 * spec.m + 3) + 10
    return spec.support


# ---------------------------------------------------------------------------
# Criterion 1: basis correctness
# ---------------------------------------------------------------------------

def test_criterion_1_basis_correctness():
    start = time.perf_counter()
    worst_orth = 0.0
    for family in (Family.TRIG_ODD, Family.LAGUERRE, Family.HERMITE, Family.LEGENDRE):
        spec = BasisSpec(family, 21 if family is Family.TRIG_ODD else 20)
        nodes, weights = panel_gauss(*quad_domain(spec))
        vals = eval_basis(spec, nodes)
        gram = vals.T @ (weights[:, None] * vals)
        worst_orth = max(worst_orth, np.abs(gram - np.eye(spec.m)).max())

    worst_fd = 0.0
    rng = np.random.default_rng(SEED)
    for family in Family:
        spec = (BasisSpec(family, 12, (0.2, 1.9)) if family is Family.HALF_TRIG
                else BasisSpec(family, 13 if family is Family.TRIG_ODD else 12))
        lo, hi = quad_domain(spec)
        pts = np.clip(rng.uniform(lo, hi, 300), lo + 1e-3, hi - 1e-3)
        h = 1e-5
        fd = (eval_basis(spec, pts + h) - eval_basis(spec, pts - h)) / (2 * h)
        exact = eval_basis_derivative(spec, pts)
        worst_fd = max(worst_fd, np.abs(fd - exact).max() / (np.abs(exact).max() + 1.0))

    worst_link = 0.0
    for family in Family:
        for m in (3, 11, 24):
            spec = (BasisSpec(family, m, (0.2, 1.9)) if family is Family.HALF_TRIG
                    else BasisSpec(family, m + 1 if family is Family.TRIG_ODD and m % 2 == 0 else m))
            lo, hi = quad_domain(spec)
            pts = np.clip(rng.uniform(lo, hi, 1000), lo + 1e-6, hi - 1e-6)
            # eval_basis_derivative goes through the link matrix; the
            # recursion evaluates the derivatives without it
            linked = eval_basis_derivative(spec, pts)
            recursion = derivative_recursion(spec, pts)
            rel = (np.abs(linked - recursion).max()
                   / (1.0 + np.abs(recursion).max()))
            worst_link = max(worst_link, rel)

    elapsed = time.perf_counter() - start
    ok = worst_orth <= 1e-6 and worst_fd <= 1e-6 and worst_link <= 1e-9 and elapsed < 10
    report("criterion 1 (basis correctness)", ok,
           f"orthonormality dev {worst_orth:.2e} (<=1e-6), finite-diff rel "
           f"{worst_fd:.2e} (<=1e-6), link rel {worst_link:.2e} (<=1e-9), "
           f"runtime {elapsed:.1f}s (<10s)")


# ---------------------------------------------------------------------------
# Criterion 2: commutation-gap closed forms
# ---------------------------------------------------------------------------

def test_criterion_2_projection_gap_closed_forms():
    start = time.perf_counter()
    gaps = []

    numeric, closed = projection_gap(
        lambda x: 2 * np.sin(np.pi * x), BasisSpec(Family.TRIG_ODD, 5),
        b_prime=lambda x: 2 * np.pi * np.cos(np.pi * x))
    gaps.append(("trig odd", numeric, closed))

    h3 = lambda x: eval_basis(BasisSpec(Family.HERMITE, 4), x)[..., 3]
    numeric, closed = projection_gap(h3, BasisSpec(Family.HERMITE, 3))
    gaps.append(("hermite h3", numeric, closed))

    b2 = TEST_FUNCTIONS["b2"]
    numeric, closed = projection_gap(b2.b, BasisSpec(Family.HERMITE, 1),
                                     b_prime=b2.b_prime)
    gaps.append(("hermite bump", numeric, closed))

    b = lambda x: x * np.exp(-x / 2.0)
    bp = lambda x: (1 - x / 2.0) * np.exp(-x / 2.0)
    numeric, partial = projection_gap(b, BasisSpec(Family.LAGUERRE, 3), b_prime=bp)
    _, tail = projection_gap(b, BasisSpec(Family.LAGUERRE, 3), b_prime=bp,
                             laguerre_tail_form=True)
    gaps.append(("laguerre partial", numeric, partial))
    gaps.append(("laguerre tail", numeric, tail))

    cubic = lambda x: x ** 3 - x
    cubic_p = lambda x: 3 * x ** 2 - 1
    numeric, closed = projection_gap(cubic, BasisSpec(Family.LEGENDRE, 2),
                                     b_prime=cubic_p)
    gaps.append(("legendre even-m cubic", numeric, closed))

    worst = max(abs(n - c) for _, n, c in gaps)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30
    detail = ", ".join(f"{name} |num-closed|={abs(n - c):.1e}" for name, n, c in gaps)
    report("criterion 2 (gap closed forms)", ok,
           f"{detail}; worst {worst:.2e} (<=1e-6), runtime {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# Criterion 3: monotonicity of the variance trace and penalty
# ---------------------------------------------------------------------------

def test_criterion_3_monotonicity():
    violations = 0
    checked = 0
    for k in range(20):
        rng = np.random.default_rng(SEED + k)
        if k % 2 == 0:
            family = Family.HERMITE
            sample = Sample(x=rng.standard_normal(600), y=np.zeros(600))
        else:
            family = Family.TRIG_ODD
            sample = Sample(x=rng.uniform(0, 1, 600), y=np.zeros(600))
        m_grid = default_m_grid(family, 600, 20)
        cache = DesignCache(sample, family, max(m_grid))
        members = collection_members(cache, m_grid, default_d_constant(sample.x))
        k = max(members)
        whitened = _whitened(cache.factor[:k, :k], cache.derivative_root(k))
        traces, penalties = [], []
        for m in members:
            w = whitener(cache._gram[:m, :m])
            phi_prime = derivative_recursion(cache.spec_for(m), sample.x)
            psi_prime = phi_prime.T @ phi_prime / sample.n
            traces.append(float(np.trace(w @ psi_prime @ w)))
            penalties.append(penalty_v_hat(whitened[:m, :m], 1.0, 600))
        for series in (traces, penalties):
            diffs = np.diff(series)
            checked += len(diffs)
            tol = 1e-9 * np.maximum(1.0, np.abs(np.asarray(series[:-1])))
            violations += int((diffs < -tol).sum())
    ok = violations == 0
    report("criterion 3 (monotonicity)", ok,
           f"{checked} increments over 20 samples, {violations} violations")


# ---------------------------------------------------------------------------
# Criterion 4: benchmark reproduction at desk scale
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table_report(tmp_path_factory):
    config = ExperimentConfig(functions=("b1", "b2", "b3", "b4"),
                              families=("hermite", "half-trig"),
                              n_list=(250, 1000, 4000), sigma=0.25,
                              repetitions=100, seed=SEED, mode="oracle")
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    save_report(result, tmp_path_factory.mktemp("report") / "table.csv")
    return result, elapsed


def test_criterion_4_benchmark_cells(table_report):
    result, elapsed = table_report
    r1 = report_row(result, "b1", "half-trig", 250, "b'")
    r2 = report_row(result, "b2", "hermite", 250, "b")
    r3 = report_row(result, "b3", "hermite", 4000, "b'")

    checks = [
        ("b1/half-trig n=250 100MSE(b')", 6.0 <= r1.mse100_mean <= 12.0,
         f"{r1.mse100_mean:.2f} in [6,12]"),
        ("b2/hermite n=250 dim(b)", 1.0 <= r2.dim_mean <= 1.3,
         f"{r2.dim_mean:.2f} in [1.0,1.3]"),
        ("b2/hermite n=250 100MSE(b)", r2.mse100_mean <= 0.25,
         f"{r2.mse100_mean:.3f} <= 0.25"),
        ("b3/hermite n=4000 100MSE(b')", 0.6 <= r3.mse100_mean <= 1.8,
         f"{r3.mse100_mean:.2f} in [0.6,1.8]"),
        ("runtime", elapsed < 600, f"{elapsed:.0f}s (<600s)"),
    ]
    ok = all(c[1] for c in checks)
    report("criterion 4 (benchmark cells)", ok,
           "; ".join(f"{name}: {detail}" for name, _, detail in checks))


def test_criterion_4_risk_decreases_in_n(table_report):
    result, _ = table_report
    failures = []
    for fn in ("b1", "b2", "b3", "b4"):
        for fam in ("hermite", "half-trig"):
            for target in ("b", "b'"):
                series = [report_row(result, fn, fam, n, target).mse100_mean
                          for n in (250, 1000, 4000)]
                if not (series[0] > series[1] > series[2]):
                    failures.append((fn, fam, target, series))
    ok = not failures
    report("criterion 4 (risk decreases in n)", ok,
           "all 16 cells strictly decreasing" if ok else f"failures: {failures}")


# ---------------------------------------------------------------------------
# Criterion 5: exact recovery of an in-span target
# ---------------------------------------------------------------------------

def test_criterion_5_exact_recovery():
    rng = rng_for(SEED, 50, 0)
    x = rng.standard_normal(10000)
    sample = Sample(x=x, y=np.exp(-x * x / 2.0))
    spec = BasisSpec(Family.HERMITE, 1)
    fit = fit_derivative_1(sample, spec)
    coeff_err = abs(fit.theta[0] - math.pi ** 0.25)
    grid = np.linspace(-2, 2, 801)
    sup_err = np.abs(evaluate_fit(fit, grid) -
                     (-grid * np.exp(-grid * grid / 2.0))).max()
    ok = coeff_err <= 1e-3 and sup_err <= 1e-2
    report("criterion 5 (exact recovery)", ok,
           f"|theta - pi^(1/4)| = {coeff_err:.2e} (<=1e-3), sup-norm error "
           f"{sup_err:.2e} (<=1e-2)")


# ---------------------------------------------------------------------------
# Criterion 6: selector risk against the oracle, calibrated constants
# ---------------------------------------------------------------------------

def _gl_risk_ratios(function, family, n, kappa, seeds, seed_base):
    fn = TEST_FUNCTIONS[function]
    ratios = []
    for i in range(seeds):
        rng = rng_for(seed_base, i, 0)
        sample = generate_sample(fn, n, 0.25, rng)
        lo, hi = trim_interval(sample)
        m_grid = default_m_grid(family, n)
        cache = DesignCache(sample, family, max(m_grid),
                            (lo, hi) if family is Family.HALF_TRIG else None)
        errors = _oracle_error_sweep(cache, m_grid, (lo, hi), {"derivative": fn.b_prime})
        oracle_err = min(e["derivative"] for e in errors.values())
        selection, _ = gl_select(sample, family, m_grid, sigma2=None,
                                 interval=cache.spec.interval, kappa0=kappa, kappa1=kappa)
        ratios.append(errors[selection.m_hat]["derivative"] / max(oracle_err, 1e-300))
    return np.asarray(ratios)


def test_criterion_6_selector_vs_oracle():
    details = []
    ok = True
    for function, family_name in (("b1", "half-trig"), ("b3", "hermite")):
        family = Family.HALF_TRIG if family_name == "half-trig" else Family.HERMITE
        rows = calibrate_kappa(function, family_name, 1000,
                               kappas=(0.1, 0.2, 0.5, 1.0, 2.0),
                               seeds=15, seed=SEED + 1)
        kappa = best_kappa(rows)
        ratios = _gl_risk_ratios(function, family, 1000, kappa,
                                 seeds=50, seed_base=SEED + 2)
        med = float(np.median(ratios))
        ok = ok and med <= 4.0
        details.append(f"{function}/{family_name}: kappa*={kappa}, "
                       f"median ratio {med:.2f} (<=4)")
    report("criterion 6 (selector vs oracle)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 7: benchmark determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    cfg_text = ("functions = b2, b3\nfamilies = hermite\nn = 250\n"
                "repetitions = 5\nseed = 77\nmode = oracle\n")
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(cfg_text)
    from derivfit.cli import main
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(out2)]) == 0
    same = out1.read_bytes() == out2.read_bytes()
    report("criterion 7 (determinism)", same,
           f"two runs produced byte-identical reports ({out1.stat().st_size} bytes)")
