"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (plus per-bound detail for the
Monte Carlo criteria).  The desk-scale Monte Carlo experiments reuse
module-scoped runs shared across criteria 5, 6 and 8; one more test checks
that their sample size follows the rule stated in ``mc_dummies``.
"""

import math
import time

import numpy as np
import pytest

from panel_logit import (DgpConfig, EstimatorRun, McConfig,
                         TimeDummiesSpec, TimeTrendSpec, estimate_panel,
                         history_law, run_mc)
from panel_logit.cli import main as cli_main
from panel_logit.oracle import (check_identities, check_population,
                                check_ranks, check_three_period_rank,
                                check_vanishing_rows, check_zero_means)

SEED = 20250810
SPEC_DUMMIES = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
SPEC_TREND = TimeTrendSpec(gamma=1.0, phi_coef=0.3, tau=1.0)
R = 200
# sample size of the desk-scale experiments; see ``mc_dummies`` for its rule
N_DESK = 100_000_000


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def mc_dummies():
    """Period-dummy experiment of criteria 5 and 8 at N = N_DESK.

    Criteria 5, 6 and 8 check asymptotic properties (bias within Monte
    Carlo noise, se tracking sd, chi-square rejection rates), so N must put
    the estimators in their asymptotic regime.  The rule: N is the smallest
    power of ten at which every transformed component that recovery or a
    Wald test takes the log of has an exact asymptotic relative sd of at
    most 0.1.  The exact sds come from the estimators' own variance
    evaluated on the exact law of the 256 eight-period histories (fixed
    effect by Gauss-Hermite quadrature, no simulation).  Relative sds at
    N = 2e5, scaling as sqrt(2e5 / N):

    * A[minus-3-7] (recovery logs a, b, d; the Wald test all six):
      a 0.20, b 0.92, c 1.47, d 0.28, f 1.02, g 1.76;
    * B[minus-1-5] (recovery logs a, b, d): a 0.20, b 1.30, d 0.31;
    * C[full] (recovery logs a, e; the Wald test all eight): a 0.91,
      b 0.11, c 1.23, d 1.24, e 0.19, f 2.11, g 0.90, h 0.92;
    * the two-step ratio that A and B log: 0.14.

    The binding component is C's f: 2.107 * sqrt(2e5 / N) <= 0.1 needs
    N >= 8.9e7, so N = 1e8 (at 1e7 it is still 0.30).  Neither N nor SEED
    is tuned on results: SEED is the suite's seed and N follows from this
    rule; a bound that fails at this N is reported.  Simulating individuals
    would hold a 0.8 GB panel per replication at this N (``simulate_panel``
    traces 8.6 bytes per individual at 2e6 x 8) and take about 20 s to draw
    it, so the replications draw history counts (``sampler="histogram"``),
    which have the same law.
    """
    config = McConfig(
        spec=SPEC_DUMMIES,
        dgp=DgpConfig(n_individuals=N_DESK, n_periods=8, sigma_eta_sq=0.5, seed=SEED),
        replications=R,
        estimators=(EstimatorRun("A", "minus-3-7", 7, two_step=True),
                    EstimatorRun("B", "minus-1-5", 7, two_step=True),
                    EstimatorRun("A", "minus-3-7", 7, wald="ab-dummies")),
        discard_prefix=3, sampler="histogram")
    return run_mc(config)


@pytest.fixture(scope="module")
def mc_trend():
    """Trend experiment of criteria 6 and 8; N as derived in ``mc_dummies``."""
    config = McConfig(
        spec=SPEC_TREND,
        dgp=DgpConfig(n_individuals=N_DESK, n_periods=8, sigma_eta_sq=0.5, seed=SEED),
        replications=R,
        estimators=(EstimatorRun("C", "full", 7, wald="c-trend"),),
        discard_prefix=3, sampler="histogram")
    return run_mc(config)


def _exact_relative_sd(spec, family: str, variant: str) -> dict[str, float]:
    """Asymptotic sd / value of each transformed component, at N = 1.

    The estimator runs on the exact history law as a history table of 1e15
    individuals (rounding leaves ~1e-11 relative error), so its estimate is
    the true value and N times its variance the asymptotic variance.
    """
    table = np.rint(history_law(spec, 8, 0.5) * 1e15).astype(np.int64)
    est = estimate_panel(table, family, variant, 7).transformed
    sd = np.sqrt(np.diag(est.vcov) * est.n)
    return dict(zip(est.col_labels, sd / est.alpha))


def test_desk_size_follows_exact_moment_rule():
    logged = {(SPEC_DUMMIES, "A", "minus-3-7"): "abcdfg",
              (SPEC_DUMMIES, "B", "minus-1-5"): "abd",
              (SPEC_TREND, "C", "full"): "abcdefgh"}
    worst = max(_exact_relative_sd(spec, family, variant)[label]
                for (spec, family, variant), labels in logged.items()
                for label in labels)
    assert worst / math.sqrt(2e5) == pytest.approx(2.107, abs=1e-3)   # C's f
    smallest = next(10**k for k in range(4, 12) if worst / math.sqrt(10**k) <= 0.1)
    assert N_DESK == smallest


@pytest.fixture(scope="module")
def mc_rootn():
    out = {}
    for n in (100_000, 400_000):
        config = McConfig(
            spec=SPEC_DUMMIES,
            dgp=DgpConfig(n_individuals=n, n_periods=8, sigma_eta_sq=0.5, seed=SEED),
            replications=R,
            estimators=(EstimatorRun("A", "minus-3-7", 7),),
            discard_prefix=3)
        out[n] = run_mc(config)
    return out


def test_criterion_01_identity_suite():
    start = time.perf_counter()
    res = check_identities(n_draws=50)
    elapsed = time.perf_counter() - start
    ok = res.passed and elapsed < 1.0
    _report(1, ok, f"12 moment rows vs rescaled conditional forms, max rel "
                   f"violation {res.max_violation:.2e} (tol 1e-12), {elapsed:.2f}s")
    assert ok


def test_criterion_02_zero_mean_suite():
    start = time.perf_counter()
    res = check_zero_means()
    elapsed = time.perf_counter() - start
    ok = res.passed and elapsed < 1.0
    _report(2, ok, f"conditional means at truth, max |value| "
                   f"{res.max_violation:.2e} (tol 1e-12), {elapsed:.2f}s")
    assert ok


def test_criterion_03_population_recovery():
    start = time.perf_counter()
    results = check_population()
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < 5.0
    worst = max(r.max_violation for r in results)
    _report(3, ok, f"all variants of all families on the parameter grid, max "
                   f"|error| {worst:.2e} (tol 1e-8), {elapsed:.2f}s")
    assert ok


def test_criterion_04_degeneracy_loci():
    results = check_ranks()
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}={int(r.max_violation)}" for r in results)
    _report(4, ok, detail)
    assert ok


def _mc_bounds_lines(summary, label, params):
    est = next(e for e in summary.estimators if e.label == label)
    lines, all_ok = [], True
    for name in params:
        p = est.params[name]
        bias_bound = 3.0 * p.sd / math.sqrt(R)
        bias_ok = abs(p.bias) <= bias_bound
        ratio = p.se / p.sd if p.sd > 0 else float("inf")
        ratio_ok = 0.85 <= ratio <= 1.15
        all_ok &= bias_ok and ratio_ok
        lines.append(f"    {label} {name}: |bias| {abs(p.bias):.4f} vs "
                     f"{bias_bound:.4f} [{'ok' if bias_ok else 'FAIL'}], "
                     f"se/sd {ratio:.3f} vs [0.85, 1.15] "
                     f"[{'ok' if ratio_ok else 'FAIL'}] "
                     f"(ok {est.n_success}/{R})")
    return all_ok, lines


def test_criterion_05_desk_scale_mc_dummies(mc_dummies):
    ok_a, lines_a = _mc_bounds_lines(mc_dummies, "A[minus-3-7]@t7+two-step",
                                     ("gamma", "dtd_tm1", "dtd_t", "dtd_tp1"))
    ok_b, lines_b = _mc_bounds_lines(mc_dummies, "B[minus-1-5]@t7+two-step",
                                     ("gamma", "dtd_tm1", "dtd_t", "dtd_tp1"))
    ok = ok_a and ok_b
    _report(5, ok, f"period-dummy model at N={N_DESK:.0e}, R={R}, window 7")
    detail = "\n".join(lines_a + lines_b)
    print(detail)
    assert ok, "\n" + detail


def test_criterion_06_desk_scale_mc_trend(mc_trend):
    ok, lines = _mc_bounds_lines(mc_trend, "C[full]@t7", ("gamma", "phi_coef"))
    _report(6, ok, f"trend model at N={N_DESK:.0e}, R={R}, window 7")
    detail = "\n".join(lines)
    print(detail)
    assert ok, "\n" + detail


def test_criterion_07_root_n(mc_rootn):
    sd_small = mc_rootn[100_000].estimators[0].params["gamma"].sd
    sd_large = mc_rootn[400_000].estimators[0].params["gamma"].sd
    ratio = sd_large / sd_small
    ok = 0.45 <= ratio <= 0.56
    _report(7, ok, f"sd ratio gamma(N=4e5)/gamma(N=1e5) = {ratio:.4f} "
                   f"vs [0.45, 0.56]")
    assert ok


def test_criterion_08_wald_rejection_rates(mc_dummies, mc_trend):
    est_a = next(e for e in mc_dummies.estimators if e.wald_rejection_rate is not None)
    est_c = mc_trend.estimators[0]
    rate_a, rate_c = est_a.wald_rejection_rate, est_c.wald_rejection_rate
    ok_a = 0.02 <= rate_a <= 0.10
    ok_c = 0.02 <= rate_c <= 0.10
    ok = ok_a and ok_c
    _report(8, ok, f"rejection at 5%: 3-restriction set {rate_a:.4f} "
                   f"[{'ok' if ok_a else 'FAIL'}], 6-restriction set "
                   f"{rate_c:.4f} [{'ok' if ok_c else 'FAIL'}]")
    assert ok


def test_criterion_09_three_period_underidentification():
    vanish = check_vanishing_rows()
    rank = check_three_period_rank()
    ok = vanish.passed and rank.passed
    _report(9, ok, f"selected rows vanish exactly; surviving two-row system "
                   f"rank {int(rank.max_violation)} <= 2 < 3 parameters")
    assert ok


def test_criterion_10_determinism(tmp_path):
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        "model = dummies\ngamma = 1.0\n"
        "td = 0.1 -0.1 0.3 -0.3 -0.1 0.3 0.5 0.2\n"
        "n_individuals = 5000\nn_periods = 8\nsigma_eta_sq = 0.5\nseed = 4\n"
        "replications = 6\ndiscard_prefix = 3\n"
        "estimator = A minus-3-7 7\n")
    out1, out2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
    raw1, raw2 = tmp_path / "raw1.csv", tmp_path / "raw2.csv"
    assert cli_main(["mc", "--config", str(sim_cfg), "--threads", "1",
                     "--out", str(out1), "--raw", str(raw1)]) == 0
    assert cli_main(["mc", "--from-manifest", str(out1) + ".manifest.json",
                     "--threads", "2", "--out", str(out2), "--raw", str(raw2)]) == 0
    mc_ok = (out1.read_bytes() == out2.read_bytes()
             and raw1.read_bytes() == raw2.read_bytes())

    panel = tmp_path / "panel.csv"
    assert cli_main(["simulate", "--config", str(sim_cfg), "--out", str(panel)]) == 0
    e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
    assert cli_main(["estimate", str(panel), "--family", "B", "--variant",
                     "minus-1-5", "--window", "7", "--out", str(e1)]) == 0
    assert cli_main(["estimate", "--from-manifest", str(e1) + ".manifest.json",
                     "--out", str(e2)]) == 0
    est_ok = e1.read_bytes() == e2.read_bytes()

    ok = mc_ok and est_ok
    _report(10, ok, f"mc rerun bitwise identical across thread counts: {mc_ok}; "
                    f"estimate rerun bitwise identical: {est_ok}")
    assert ok
