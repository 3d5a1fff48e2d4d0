import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from panel_logit import (SingularSystem, TimeDummiesSpec, TimeTrendSpec,
                         TransformedEstimate, build_system, build_system_c,
                         moment_rank, population_aggregates, population_system,
                         run_checks, solve, two_step_dtd_tm1, variance)
from panel_logit.aggregation import from_cells
from panel_logit import oracle
from panel_logit.estimators import kept_components
from panel_logit.inference import recover_original
from panel_logit.kernels import (all_windows, alpha_from_spec, alpha_labels,
                                 row_cells)
from panel_logit.model import chain_law
from panel_logit.oracle import (_ZERO_MEAN_ETA, _conditional_means, _moment_tables,
                                _value_matrix, _window_law, check_identities,
                                check_three_period_rank, check_vanishing_rows,
                                format_report, population_estimate,
                                spec_with_steps)
from scalar_kernels import (SELECTORS, bar, theta_kernels, transformed_moment_row,
                            xi_kernels)

SPEC_31 = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
SPEC_TREND = TimeTrendSpec(gamma=-0.6, phi_coef=0.3)


def _logistic(x):
    """Scalar logistic, evaluated on the side whose exponential cannot overflow."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _history_prob(spec, eta, hist):
    """Probability of outcomes ``hist`` over periods 1.. as a product of
    scalar logistic transitions; the first period has no lag term."""
    pr, prev = 1.0, 0
    for period, y in enumerate(hist, start=1):
        p = _logistic(eta + spec.gamma * prev + spec.effect(period))
        pr *= p if y else 1.0 - p
        prev = y
    return pr


@pytest.mark.parametrize("spec", [SPEC_31, SPEC_TREND], ids=["dummies", "trend"])
@pytest.mark.parametrize("first, n_periods", [(1, 3), (3, 4), (4, 5)])
def test_chain_law_is_a_product_of_logistic_transitions(spec, first, n_periods):
    # periods before ``first`` are summed out: enumerate them and add up
    eta = np.array([-1.7, 0.0, 0.45, 2.3])
    law = chain_law(spec, eta, n_periods, first)
    assert law.shape == (len(eta), 2 ** n_periods)
    for k, e in enumerate(eta):
        for h in range(2 ** n_periods):
            tail = tuple((h >> (n_periods - 1 - j)) & 1 for j in range(n_periods))
            want = sum(_history_prob(spec, e, head + tail)
                       for head in product((0, 1), repeat=first - 1))
            assert law[k, h] == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_chain_law_fair_coin():
    spec = TimeDummiesSpec(gamma=0.0, td=(0.0,) * 8)
    assert np.all(chain_law(spec, np.zeros(1), 5, 4) == 1 / 32)


def test_chain_law_sums_to_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        law = chain_law(SPEC_31, rng.normal(size=3), 5, int(rng.integers(1, 4)))
        assert np.all(law >= 0)
        assert np.abs(law.sum(axis=1) - 1.0).max() <= 1e-14


def test_chain_law_high_precision_point():
    # P(y_1, y_2 = 1) at eta = 0.3, indices -0.1 and then 0.5 or 1.5,
    # against a 50-digit evaluation of the closed form
    import mpmath

    spec = TimeDummiesSpec(gamma=1.0, td=(-0.4, 0.2))
    law = chain_law(spec, np.array([0.3]), 2)
    with mpmath.workdps(50):
        def logistic(x):
            return 1 / (1 + mpmath.exp(-mpmath.mpf(x)))

        for y1, index in ((0, "0.5"), (1, "1.5")):
            p1 = logistic("-0.1") if y1 else 1 - logistic("-0.1")
            want = float(p1 * logistic(index))
            assert law[0, 2 * y1 + 1] == pytest.approx(want, rel=1e-15)


def test_chain_law_extreme_indices_stay_positive():
    # indices of +-700 sit at the float64 exp limit: every history keeps a
    # positive probability and the law still sums to one
    spec = TimeDummiesSpec(gamma=100.0, td=(300.0, 200.0, -300.0))
    law = chain_law(spec, np.array([400.0, -400.0]), 3)
    assert np.all(np.isfinite(law)) and np.all(law >= 0.0)
    assert law[0, 0b110] > 0.0 and law[1, 0b001] > 0.0
    assert np.abs(law.sum(axis=1) - 1.0).max() <= 1e-15


@pytest.mark.parametrize("spec, t, families", [
    (SPEC_31, 7, ("A", "B")),
    (TimeTrendSpec(gamma=1.0, phi_coef=0.3), 6, ("A", "B", "C")),
], ids=["dummies", "trend"])
def test_window_law_zero_means_at_truth_nonzero_when_perturbed(spec, t, families):
    # every row of each family, C's window t - 1 rows included, and both
    # conditional forms: zero given the pre-window outcomes at the truth,
    # and off zero when evaluated at a wrong gamma under the true law
    law = _window_law(spec, _ZERO_MEAN_ETA, t)
    truth = _moment_tables(spec, t, families)
    wrong = _moment_tables(dataclasses.replace(spec, gamma=1.2), t, families)
    columns = 0
    for (good, states), (bad, _) in zip(truth, wrong):
        assert np.abs(_conditional_means(law, good, states)).max() < 1e-12
        off = np.abs(_conditional_means(law, bad, states)).max(axis=(0, 1))
        assert off.min() > 1e-4, off
        columns += good.shape[1]
    assert columns == 2 + 8 * len(families)


def test_population_consistency_sweep():
    # wider grid than the acceptance run: 27 points for A/B, 9 for C
    from panel_logit import alpha_from_spec, alpha_labels
    from panel_logit.oracle import population_estimate

    for gamma in (-0.5, 0.4, 1.0):
        for dtd_t in (-0.3, 0.0, 0.5):
            for dtd_tp1 in (-0.4, 0.1, 0.6):
                spec = spec_with_steps(gamma, dtd_t, dtd_tp1)
                for family, variant in (("A", "minus-r:6"), ("B", "minus-3-7")):
                    est = population_estimate(family, spec, 5, variant)
                    truth = alpha_from_spec(family, spec, 5)
                    labels = alpha_labels(family)
                    for c, v in zip(est.col_labels, est.alpha):
                        assert abs(v - truth[labels.index(c)]) < 1e-8
    for gamma in (-0.5, 0.4, 1.0):
        for phi_coef in (-0.3, 0.1, 0.5):
            trend = TimeTrendSpec(gamma=gamma, phi_coef=phi_coef)
            est = population_estimate("C", trend, 5, "full")
            assert np.allclose(est.alpha, alpha_from_spec("C", trend, 5), atol=1e-8)


def test_degenerate_eta_grid_detected():
    # single-point grid at the degenerate parameter locus
    spec = spec_with_steps(0.0, 0.0, 0.0)
    system = population_system("A", spec, 5, (0.0,), (1.0,), "minus-3-7")
    with pytest.raises(SingularSystem):
        solve(system)


def test_moment_rank_values():
    generic = spec_with_steps(1.0, 0.2, -0.1)
    assert moment_rank("A", generic, 5) == 8
    _, rows, _ = kept_components("A", "minus-3-7")
    assert moment_rank("A", generic, 5, rows) == 6
    locus = spec_with_steps(0.0, 0.2, 0.0)
    assert moment_rank("A", locus, 5, rows) < 6
    trend = TimeTrendSpec(gamma=1.0, phi_coef=0.3)
    assert moment_rank("C", trend, 5) == 8
    assert moment_rank("C", TimeTrendSpec(gamma=0.0, phi_coef=0.0), 5) < 8


@pytest.mark.parametrize("family, spec", [
    ("A", spec_with_steps(1.0, 0.2, -0.1)),
    ("A", spec_with_steps(0.0, 0.2, 0.0)),
    ("B", spec_with_steps(-0.5, 0.4, 0.3)),
    ("C", TimeTrendSpec(gamma=1.0, phi_coef=0.3)),
    ("C", TimeTrendSpec(gamma=0.0, phi_coef=0.0)),
])
def test_rank_matrix_is_the_scalar_expansion(family, spec):
    # rows 5..8 are rows 1..4 times y_{t-3} (A, B) or at window t-1 (C),
    # whose first period y_{t-4} no row reads
    alphas = alpha_from_spec(family, spec, 5)
    want = np.empty((8, 32))
    for c, w in enumerate(all_windows()):
        for row in range(8):
            base = row % 4 + 1
            if row < 4:
                want[row, c] = transformed_moment_row(family, base, w, alphas)
            elif family == "C":
                want[row, c] = transformed_moment_row(family, base, (0,) + w[:4], alphas)
            else:
                want[row, c] = transformed_moment_row(family, base, w, alphas) * w[0]
    assert np.array_equal(_value_matrix(family, spec, 5, range(1, 9)), want)
    rows = (1, 2, 4, 5, 6, 8)
    assert np.array_equal(_value_matrix(family, spec, 5, rows), want[np.array(rows) - 1])


def _perturbed_row_cells(monkeypatch, family, change):
    """Make the oracle read a copy of ``row_cells`` with ``change(y, x)``
    applied to ``family``'s tables."""
    def patched(fam):
        y, x = row_cells(fam)
        if fam != family:
            return y, x
        y, x = y.copy(), x.copy()
        change(y, x)
        return y, x

    monkeypatch.setattr(oracle, "row_cells", patched)


def test_mutated_kernel_breaks_identities(monkeypatch):
    assert check_identities(n_draws=5).passed
    b = alpha_labels("A").index("b")

    def wrong_sign(y, x):
        x[:, 0, b] = -x[:, 0, b]  # wrong sign on row 1's second kernel

    _perturbed_row_cells(monkeypatch, "A", wrong_sign)
    assert not check_identities(n_draws=5).passed


@pytest.mark.parametrize("family, cell, row", [
    ("A", 0b10110, 5),   # y_{t-3} = 1 keeps the interacted row
    ("C", 0b01101, 7),   # window t - 1 is the cell's first four periods
])
def test_perturbed_stacked_row_breaks_identities(monkeypatch, family, cell, row):
    # rows 5..8 are read from the table, not derived from rows 1..4
    def perturb(y, x):
        y[cell, row - 1] += 0.5

    _perturbed_row_cells(monkeypatch, family, perturb)
    assert not check_identities(n_draws=2).passed


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_every_row_cell_entry_is_checked(monkeypatch, family):
    _, x_true = row_cells(family)
    entries = [(k, r, None) for k in range(32) for r in range(8)]
    entries += [(k, r, c) for k, r, c in zip(*np.nonzero(x_true))]
    for k, r, c in entries:
        def perturb(y, x):
            if c is None:
                y[k, r] += 1.0
            else:
                x[k, r, c] = 0.0

        _perturbed_row_cells(monkeypatch, family, perturb)
        assert not check_identities(n_draws=1).passed, (k, r, c)
    monkeypatch.undo()
    assert check_identities(n_draws=1).passed


def test_check_suite_all_pass():
    results = run_checks()
    report = format_report(results)
    assert all(r.passed for r in results), report


def test_run_checks_rejects_unknown_level():
    with pytest.raises(ValueError):
        run_checks(["nonsense"])


def test_vanishing_rows_and_three_period_rank():
    assert check_vanishing_rows().passed
    res = check_three_period_rank()
    assert res.passed
    assert res.max_violation <= 2


def _enumerated_bars(spec, n_periods, window, eta_nodes, eta_weights):
    """Kernel means at ``window`` by enumerating every history over periods
    1..n_periods with scalar transition probabilities, one at a time."""
    theta_bar = [[0.0] * 4 for _ in range(4)]
    xi_bar = [[0.0] * 4 for _ in range(4)]
    for eta, wgt in zip(eta_nodes, eta_weights):
        for hist in product((0, 1), repeat=n_periods):
            pr = _history_prob(spec, eta, hist)
            w = hist[window - 4:window + 1]  # periods window-3 .. window+1
            th, xk = theta_kernels(w), xi_kernels(w)
            y3, y2 = w[0], w[1]
            for col, sel in enumerate((1 - y2, y2, (1 - y2) * y3, y2 * y3)):
                for j in range(4):
                    theta_bar[j][col] += wgt * pr * sel * th[j]
                    xi_bar[j][col] += wgt * pr * sel * xk[j]
    return np.array(theta_bar), np.array(xi_bar)


@pytest.mark.parametrize("spec, t", [(SPEC_31, 7),
                                     (TimeTrendSpec(gamma=-0.6, phi_coef=0.3), 6)])
def test_population_law_matches_plain_enumeration(spec, t):
    grid = ((-1.2, 0.1, 0.9), (0.2, 0.5, 0.3))
    stats_t = population_aggregates(spec, t, *grid)
    # window t-1 from a window of its own, and from the cells of window t
    # one period back, as family C's rows and the two-step read it
    cases = [(t, stats_t, 0, tuple(SELECTORS)),
             (t - 1, population_aggregates(spec, t - 1, *grid), 0, tuple(SELECTORS)),
             (t - 1, stats_t, 1, ("-", "+"))]
    for window, stats, back, sels in cases:
        theta_ref, xi_ref = _enumerated_bars(spec, t + 1, window, *grid)
        # probabilities: the population's cells total 1, not a sample size
        assert abs(stats.summands.counts.sum() - 1) <= 1e-14
        assert stats.window_t - back == window
        for kind, ref in (("theta", theta_ref), ("xi", xi_ref)):
            got = np.array([[bar(stats, kind, j, sel, back=back) for sel in sels]
                            for j in range(1, 5)])
            assert np.max(np.abs(got - ref[:, :len(sels)])) <= 1e-14


def test_population_window_needs_period_t_minus_3():
    with pytest.raises(ValueError, match="window 3 needs period 0"):
        population_aggregates(SPEC_31, 3, (0.0,), (1.0,))


@pytest.mark.parametrize("t", [20, 40])
def test_population_recovery_at_late_windows(t):
    # the chain is enumerated over the window only, so any t is 32 cells
    cases = [("A", "minus-3-7", spec_with_steps(0.8, 0.2, -0.1, t=t)),
             ("B", "minus-1-5", spec_with_steps(0.8, 0.2, -0.1, t=t)),
             ("C", "full", TimeTrendSpec(gamma=-0.7, phi_coef=0.2))]
    for family, variant, spec in cases:
        est = population_estimate(family, spec, t, variant)
        assert est.n == 0  # the population estimate alone says there is no sample
        truth = dict(zip(alpha_labels(family), alpha_from_spec(family, spec, t)))
        assert max(abs(est.value(c) - truth[c]) for c in est.col_labels) <= 1e-8
        orig = recover_original(est)
        assert abs(orig.gamma.value - spec.gamma) <= 1e-8
        if family == "C":
            assert abs(orig.phi_coef.value - spec.phi_coef) <= 1e-8
        else:
            assert abs(orig.dtd_t.value - 0.2) <= 1e-8
            assert abs(orig.dtd_tp1.value + 0.1) <= 1e-8


def _outputs_on_cells(family, variant, t, cells, two_step):
    """Values and variances of every output of the system on ``cells``:
    the transformed components, the recovered parameters and, with the
    two-step, dtd_tm1."""
    stats = from_cells(t, cells)
    if family == "C":
        system = build_system_c(stats, variant)
    else:
        system = build_system(family, stats, variant)
    alpha = solve(system)
    est = TransformedEstimate(family=family, variant=variant, window_t=t, n=0,
                              col_labels=system.col_labels, alpha=alpha,
                              vcov=variance(system, alpha))
    orig = recover_original(est)
    params = [p for p in (orig.gamma, orig.dtd_t, orig.dtd_tp1, orig.phi_coef)
              if p is not None]
    if two_step:
        params.append(two_step_dtd_tm1(est, system).dtd_tm1)
    values = np.concatenate([alpha, [p.value for p in params]])
    variances = np.concatenate([np.diag(est.vcov), [p.se ** 2 for p in params]])
    return values, variances


def test_population_variance_is_the_multinomial_delta_method():
    # every output is a smooth g(p) of the 32 window frequencies, so its
    # variance per individual is J (diag p - p p') J' with J = dg/dp; J comes
    # from Richardson-extrapolated central differences, not from the sandwich
    grid = ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))
    cases = [("A", "minus-3-7", SPEC_31, 7, True),
             ("B", "minus-1-5", SPEC_31, 7, True),
             ("C", "full", TimeTrendSpec(gamma=-0.6, phi_coef=0.3), 6, False)]
    for family, variant, spec, t, two_step in cases:
        p = population_aggregates(spec, t, *grid).summands.counts
        p = p / p.sum()
        _, got = _outputs_on_cells(family, variant, t, p, two_step)

        def central(k, h):
            up, dn = p.copy(), p.copy()
            up[k] += h
            dn[k] -= h
            return (_outputs_on_cells(family, variant, t, up, two_step)[0]
                    - _outputs_on_cells(family, variant, t, dn, two_step)[0]) / (2 * h)

        h = 1e-6
        jac = np.column_stack([(4 * central(k, h / 2) - central(k, h)) / 3
                               for k in range(32)])
        expected = np.einsum("ij,jk,ik->i", jac, np.diag(p) - np.outer(p, p), jac)
        assert np.max(np.abs(got / expected - 1.0)) <= 1e-6, (family, got, expected)
