from itertools import product

import numpy as np
import pytest

from panel_logit import (SingularSystem, TimeDummiesSpec, TimeTrendSpec,
                         conditional_moment, logit_prob, moment_rank, path_law,
                         population_aggregates, population_system, run_checks,
                         solve, theta_kernels, xi_kernels)
from panel_logit.aggregation import SELECTORS
from panel_logit.estimators import (VARIANT_FULL, VARIANT_MINUS_15,
                                    VARIANT_MINUS_37, variant_minus_r)
from panel_logit.inference import recover_original
from panel_logit.kernels import alpha_from_spec, alpha_labels
from panel_logit.oracle import (ConditioningState, check_identities,
                                check_three_period_rank,
                                check_vanishing_rows, format_report,
                                hbar_function, moment_row_function,
                                population_estimate, spec_with_steps,
                                variant_rows)

SPEC_31 = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))


def test_path_law_fair_coin():
    spec = TimeDummiesSpec(gamma=0.0, td=(0.0,) * 8)
    state = ConditioningState(spec=spec, t=5, eta=0.0, y_tm2=0)
    _, probs = path_law(state)
    assert np.allclose(probs, 1 / 8)


def test_path_law_sums_to_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        state = ConditioningState(spec=SPEC_31, t=int(rng.integers(4, 8)),
                                  eta=float(rng.normal()), y_tm2=int(rng.integers(2)))
        _, probs = path_law(state)
        assert probs.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(probs >= 0)


def test_path_law_composition():
    state = ConditioningState(spec=SPEC_31, t=7, eta=0.3, y_tm2=1)
    paths, probs = path_law(state)
    idx = paths.index((1, 1, 1))
    expected = (logit_prob(0.3, 1.0, 1, SPEC_31.effect(6))
                * logit_prob(0.3, 1.0, 1, SPEC_31.effect(7))
                * logit_prob(0.3, 1.0, 1, SPEC_31.effect(8)))
    assert probs[idx] == pytest.approx(expected, rel=1e-15)


def test_conditional_moment_zero_at_truth_nonzero_when_perturbed():
    for eta in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for y_tm2 in (0, 1):
            state = ConditioningState(spec=SPEC_31, t=7, eta=eta, y_tm2=y_tm2)
            assert abs(conditional_moment(state, hbar_function("u", SPEC_31, 7))) < 1e-12
            assert abs(conditional_moment(state, hbar_function("upsilon", SPEC_31, 7))) < 1e-12
            assert abs(conditional_moment(state, moment_row_function("A", 1, SPEC_31, 7))) < 1e-12

    wrong = TimeDummiesSpec(gamma=1.5, td=SPEC_31.td)
    state = ConditioningState(spec=SPEC_31, t=7, eta=0.5, y_tm2=1)
    # evaluating the moment at wrong parameters under the true law
    phi_t, phi_tp1 = wrong.phi_pair(7)
    from panel_logit.kernels import hbar_u

    fn = lambda w: hbar_u(w, wrong.delta, phi_t, phi_tp1)
    assert abs(conditional_moment(state, fn)) > 1e-4


def test_population_consistency_sweep():
    # wider grid than the acceptance run: 27 points for A/B, 9 for C
    from panel_logit import alpha_from_spec, alpha_labels
    from panel_logit.oracle import population_estimate

    for gamma in (-0.5, 0.4, 1.0):
        for dtd_t in (-0.3, 0.0, 0.5):
            for dtd_tp1 in (-0.4, 0.1, 0.6):
                spec = spec_with_steps(gamma, dtd_t, dtd_tp1)
                for family, variant in (("A", variant_minus_r(6)), ("B", VARIANT_MINUS_37)):
                    est = population_estimate(family, spec, 5, variant)
                    truth = alpha_from_spec(family, spec, 5)
                    labels = alpha_labels(family)
                    for c, v in zip(est.col_labels, est.alpha):
                        assert abs(v - truth[labels.index(c)]) < 1e-8
    for gamma in (-0.5, 0.4, 1.0):
        for phi_coef in (-0.3, 0.1, 0.5):
            trend = TimeTrendSpec(gamma=gamma, phi_coef=phi_coef)
            from panel_logit.estimators import VARIANT_FULL

            est = population_estimate("C", trend, 5, VARIANT_FULL)
            assert np.allclose(est.alpha, alpha_from_spec("C", trend, 5), atol=1e-8)


def test_degenerate_eta_grid_detected():
    # single-point grid at the degenerate parameter locus
    spec = spec_with_steps(0.0, 0.0, 0.0)
    system = population_system("A", spec, 5, (0.0,), (1.0,), VARIANT_MINUS_37)
    with pytest.raises(SingularSystem):
        solve(system)


def test_moment_rank_values():
    generic = spec_with_steps(1.0, 0.2, -0.1)
    assert moment_rank("A", generic, 5) == 8
    assert moment_rank("A", generic, 5, variant_rows(VARIANT_MINUS_37)) == 6
    locus = spec_with_steps(0.0, 0.2, 0.0)
    assert moment_rank("A", locus, 5, variant_rows(VARIANT_MINUS_37)) < 6
    trend = TimeTrendSpec(gamma=1.0, phi_coef=0.3)
    assert moment_rank("C", trend, 5) == 8
    assert moment_rank("C", TimeTrendSpec(gamma=0.0, phi_coef=0.0), 5) < 8


def test_mutated_kernel_breaks_identities():
    from panel_logit.kernels import theta_kernels

    def mutated(w):
        out = theta_kernels(w).copy()
        out[1] = -out[1]  # wrong sign on the second component
        return out

    good = check_identities(n_draws=5)
    bad = check_identities(n_draws=5, theta_fn=mutated)
    assert good.passed
    assert not bad.passed


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
            pr, prev = 1.0, 0  # the first period has no lag term
            for period, y in enumerate(hist, start=1):
                p = logit_prob(eta, spec.gamma, prev, spec.effect(period))
                pr *= p if y else 1.0 - p
                prev = y
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
    cases = [(t, stats_t, 0, SELECTORS),
             (t - 1, population_aggregates(spec, t - 1, *grid), 0, SELECTORS),
             (t - 1, stats_t, 1, SELECTORS[:2])]
    for window, stats, back, sels in cases:
        theta_ref, xi_ref = _enumerated_bars(spec, t + 1, window, *grid)
        assert stats.n == 0 and stats.window_t - back == window
        for kind, ref in (("theta", theta_ref), ("xi", xi_ref)):
            got = np.array([[stats.bar(kind, j, sel, back=back) for sel in sels]
                            for j in range(1, 5)])
            assert np.max(np.abs(got - ref[:, :len(sels)])) <= 1e-14


def test_population_window_needs_period_t_minus_3():
    with pytest.raises(ValueError, match="window 3 needs period 0"):
        population_aggregates(SPEC_31, 3, (0.0,), (1.0,))


@pytest.mark.parametrize("t", [20, 40])
def test_population_recovery_at_late_windows(t):
    # the chain is enumerated over the window only, so any t is 32 cells
    cases = [("A", VARIANT_MINUS_37, spec_with_steps(0.8, 0.2, -0.1, t=t)),
             ("B", VARIANT_MINUS_15, spec_with_steps(0.8, 0.2, -0.1, t=t)),
             ("C", VARIANT_FULL, TimeTrendSpec(gamma=-0.7, phi_coef=0.2))]
    for family, variant, spec in cases:
        est = population_estimate(family, spec, t, variant)
        truth = dict(zip(alpha_labels(family), alpha_from_spec(family, spec, t)))
        assert max(abs(est.value(c) - truth[c]) for c in est.col_labels) <= 1e-8
        orig = recover_original(est)
        assert abs(orig.gamma.value - spec.gamma) <= 1e-8
        if family == "C":
            assert abs(orig.phi_coef.value - spec.phi_coef) <= 1e-8
        else:
            assert abs(orig.dtd_t.value - 0.2) <= 1e-8
            assert abs(orig.dtd_tp1.value + 0.1) <= 1e-8
