import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from scipy.stats import chi2

from panel_logit import (DgpConfig, TimeDummiesSpec, TimeTrendSpec, history_law,
                         simulate_histogram, simulate_panel)
from panel_logit import _rng
from panel_logit.model import chain_law
from panel_logit.panel import ROW_BLOCK

SPEC_31 = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
SPEC_TREND = TimeTrendSpec(gamma=1.0, phi_coef=0.3)


def _logistic(x):
    """Scalar logistic, evaluated on the side whose exponential cannot overflow."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _logit_prob(eta, gamma, prev, effect):
    """P(y_2 = 1 | y_1 = prev, eta) read off ``chain_law``.  Period 1's index
    is eta - eta = 0, so P(y_1 = prev) is exactly 1/2 and doubling is exact."""
    spec = TimeDummiesSpec(gamma=gamma, td=(-eta, effect))
    return 2.0 * chain_law(spec, np.array([eta]), 2)[0, 2 * prev + 1]


def test_logit_prob_symmetric_zero():
    assert _logit_prob(0.0, 1.0, 0, 0.0) == 0.5


def test_logit_prob_closed_form_unit():
    assert _logit_prob(0.0, 1.0, 1, 0.0) == pytest.approx(math.exp(1) / (1 + math.exp(1)), rel=1e-15)


def test_logit_prob_high_precision_point():
    # independent high-precision evaluation of the closed form at index 1.5
    import mpmath

    with mpmath.workdps(50):
        expected = float(mpmath.exp(1.5) / (1 + mpmath.exp(1.5)))
    assert _logit_prob(0.3, 1.0, 1, 0.2) == pytest.approx(expected, rel=1e-15)


def test_logit_prob_extreme_arguments_no_overflow():
    hi = _logit_prob(400.0, 100.0, 1, 200.0)   # index 700
    lo = _logit_prob(-400.0, -100.0, 1, -200.0)
    assert math.isfinite(hi) and math.isfinite(lo)
    assert 0.0 < lo < 1e-300          # stays strictly positive
    assert hi == pytest.approx(1.0)   # rounds to 1.0, never overflows


def test_logit_prob_monotone():
    grid = np.linspace(-3, 3, 13)
    for lo, hi in zip(grid[:-1], grid[1:]):
        assert _logit_prob(hi, 0.5, 1, 0.0) > _logit_prob(lo, 0.5, 1, 0.0)
        assert _logit_prob(0.1, 0.5, 1, hi) > _logit_prob(0.1, 0.5, 1, lo)
        assert _logit_prob(0.1, hi, 1, 0.2) > _logit_prob(0.1, lo, 1, 0.2)
    # gamma only matters through the lag
    assert _logit_prob(0.1, 2.0, 0, 0.2) == _logit_prob(0.1, -2.0, 0, 0.2)


def test_spec_validation():
    with pytest.raises(ValueError):
        TimeDummiesSpec(gamma=float("nan"), td=(0.0,))
    with pytest.raises(ValueError):
        TimeTrendSpec(gamma=0.0, phi_coef=float("inf"))
    spec = TimeDummiesSpec(gamma=0.3, td=(0.1, 0.2, 0.4))
    assert spec.effect(2) == 0.2
    assert spec.effect_step(3) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        spec.effect(4)
    with pytest.raises(ValueError):
        spec.effect_step(1)


def test_trend_spec_effects():
    spec = TimeTrendSpec(gamma=1.0, phi_coef=0.3, tau=1.0)
    assert spec.effect(1) == 0.0
    assert spec.effect(4) == pytest.approx(0.9)
    assert spec.phi_pair(6) == (math.exp(0.3), math.exp(0.3))


def test_dgp_config_validation():
    with pytest.raises(ValueError):
        DgpConfig(n_individuals=0, n_periods=8)
    with pytest.raises(ValueError):
        DgpConfig(n_individuals=10, n_periods=1)
    with pytest.raises(ValueError):
        DgpConfig(n_individuals=10, n_periods=8, sigma_eta_sq=-0.1)


@pytest.mark.parametrize("seed", [2**64, -1])
def test_seed_outside_64_bits_is_refused(seed):
    # reduced modulo 2**64, seed 2**64 drew seed 0's panel and -1 drew
    # seed 2**64 - 1's, while the config kept the seed as given
    message = f"^seed must be in 0..2\\*\\*64-1, got {seed}$"
    with pytest.raises(ValueError, match=message):
        DgpConfig(n_individuals=10, n_periods=8, seed=seed)
    with pytest.raises(ValueError, match=message):
        _rng.keyed_generator(seed)
    # the two ends of the range are distinct keys
    edges = [simulate_panel(SPEC_31, DgpConfig(n_individuals=100, n_periods=8,
                                               sigma_eta_sq=0.5, seed=edge)).y
             for edge in (0, 2**64 - 1)]
    assert not np.array_equal(*edges)


@pytest.mark.parametrize("make, field, value", [
    (lambda v: DgpConfig(n_individuals=10, n_periods=8, sigma_eta_sq=v), "sigma_eta_sq", True),
    (lambda v: DgpConfig(n_individuals=10, n_periods=8, sigma_eta_sq=v), "sigma_eta_sq", "0.5"),
    (lambda v: history_law(SPEC_31, 3, v), "sigma_eta_sq", "0.5"),
    (lambda v: TimeDummiesSpec(gamma=v, td=(0.1, 0.2)), "gamma", True),
    (lambda v: TimeDummiesSpec(gamma=1.0, td=(0.1, v)), "td[1]", "0.1"),
    (lambda v: TimeDummiesSpec(gamma=1.0, td=(v, 0.1)), "td[0]", False),
    (lambda v: TimeTrendSpec(gamma=v, phi_coef=0.3), "gamma", "1"),
    (lambda v: TimeTrendSpec(gamma=1.0, phi_coef=v), "phi_coef", True),
    (lambda v: TimeTrendSpec(gamma=1.0, phi_coef=0.3, tau=v), "tau", "1"),
    (lambda v: TimeTrendSpec(gamma=1.0, phi_coef=0.3, tau=v), "tau", 1j),
], ids=["bool-variance", "str-variance", "str-law-variance", "bool-gamma", "str-td",
        "bool-td", "str-trend-gamma", "bool-phi", "str-tau", "complex-tau"])
def test_float_fields_refuse_what_is_not_a_real_number(make, field, value):
    # a bool was kept as True, a str read as a float or left to raise a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be a real number, "
                                         f"got {re.escape(repr(value))}$"):
        make(value)
    # any real number is taken, numpy's and integers too
    make(1)
    make(np.float64(0.5))


@pytest.mark.parametrize("sigma_eta_sq", [math.nan, math.inf, -math.inf, -0.1])
def test_dgp_config_refuses_a_variance_outside_zero_to_infinity(sigma_eta_sq):
    # nan drew an all-zero panel, inf fixed every outcome by its effect's sign
    with pytest.raises(ValueError) as err:
        DgpConfig(n_individuals=10, n_periods=8, sigma_eta_sq=sigma_eta_sq)
    assert str(err.value) == ("sigma_eta_sq must be nonnegative and finite, "
                              f"got {sigma_eta_sq!r}")
    DgpConfig(n_individuals=10, n_periods=8, sigma_eta_sq=0.0)


@pytest.mark.parametrize("sigma_eta_sq", [math.nan, math.inf, -math.inf, -1.0])
def test_history_law_refuses_the_variances_dgp_config_refuses(sigma_eta_sq):
    # inf gave [0.5, 0, 0, 0, ...], nan an all-nan law, -1 a math domain error
    with pytest.raises(ValueError) as err:
        history_law(TimeTrendSpec(gamma=1.0, phi_coef=0.3), 3, sigma_eta_sq)
    assert str(err.value) == ("sigma_eta_sq must be nonnegative and finite, "
                              f"got {sigma_eta_sq!r}")


def test_simulate_requires_enough_period_effects():
    spec = TimeDummiesSpec(gamma=0.0, td=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        simulate_panel(spec, DgpConfig(n_individuals=5, n_periods=8))


def test_simulate_deterministic_replay():
    cfg = DgpConfig(n_individuals=500, n_periods=8, sigma_eta_sq=0.5, seed=11, stream=3)
    a = simulate_panel(SPEC_31, cfg)
    b = simulate_panel(SPEC_31, cfg)
    assert np.array_equal(a.y, b.y)
    # different streams decouple
    c = simulate_panel(SPEC_31, DgpConfig(n_individuals=500, n_periods=8,
                                          sigma_eta_sq=0.5, seed=11, stream=4))
    assert not np.array_equal(a.y, c.y)


def _whole_panel_outcomes(spec, cfg):
    """The outcomes of one whole-panel draw: every fixed effect, then every
    shock as one (n, T) array, then the period loop over all rows."""
    n, T = cfg.n_individuals, cfg.n_periods
    gen_eta = _rng.keyed_generator(cfg.seed, cfg.stream, _rng.SUB_ETA)
    eta = _rng.gaussian(gen_eta, n, math.sqrt(cfg.sigma_eta_sq))
    zeta = _rng.keyed_generator(cfg.seed, cfg.stream, _rng.SUB_SHOCKS).random((n, T))
    y = np.empty((n, T), dtype=np.int8)
    y[:, 0] = expit(eta + spec.effect(1)) > zeta[:, 0]
    for t in range(2, T + 1):
        y[:, t - 1] = expit(eta + spec.gamma * y[:, t - 2] + spec.effect(t)) > zeta[:, t - 1]
    return y


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
@pytest.mark.parametrize("spec", [SPEC_31, SPEC_TREND], ids=["dummies", "trend"])
def test_row_blocks_draw_the_whole_panel(spec, n):
    for sigma_eta_sq, seed, stream in ((0.0, 0, 0), (0.5, 11, 3)):
        cfg = DgpConfig(n_individuals=n, n_periods=8, sigma_eta_sq=sigma_eta_sq,
                        seed=seed, stream=stream)
        want = _whole_panel_outcomes(spec, cfg)
        assert simulate_panel(spec, cfg).y.tobytes(order="C") == want.tobytes()


def test_simulate_traces_little_beyond_the_panel():
    # the shocks are drawn a row block at a time, never as an n x T float64,
    # and the ids are the row numbers, which the panel does not store: its
    # outcomes are the only array that grows with n
    cfg = DgpConfig(n_individuals=2_000_000, n_periods=8, sigma_eta_sq=0.5, seed=3)
    tracemalloc.start()
    try:
        panel = simulate_panel(SPEC_31, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < panel.y.nbytes + 4 * 2**20, peak


def test_simulate_refuses_outcomes_it_cannot_allocate():
    # 8e15 bytes exceed the address space, so the allocation fails at once
    cfg = DgpConfig(n_individuals=10**15, n_periods=8)
    with pytest.raises(ValueError, match=f"^a panel of {10**15} x 8 outcomes needs "
                                         f"{8 * 10**15} bytes, more than can be allocated$"):
        simulate_panel(SPEC_31, cfg)


def test_simulate_degenerate_fair_coin():
    # no heterogeneity, no state dependence, no period effects: iid fair cells
    spec = TimeDummiesSpec(gamma=0.0, td=(0.0,) * 8)
    cfg = DgpConfig(n_individuals=125_000, n_periods=8, sigma_eta_sq=0.0, seed=5)
    panel = simulate_panel(spec, cfg)
    assert abs(panel.y.mean() - 0.5) < 0.002


def test_simulate_transition_frequencies_match_logit():
    # still homogeneous, but nonzero period effects move the transition rates
    spec = TimeDummiesSpec(gamma=0.0, td=(0.0, 0.4, -0.2, 0.1, 0.0, 0.0, 0.0, 0.0))
    n = 1_000_000
    panel = simulate_panel(spec, DgpConfig(n_individuals=n, n_periods=4, seed=9))
    for t in (2, 3, 4):
        y = panel.col(t)
        p_true = _logistic(spec.effect(t))
        se = math.sqrt(p_true * (1 - p_true) / n)
        assert abs(y.mean() - p_true) < 4 * se


def test_simulate_conditional_transition_matches_quadrature():
    # empirical P(y_5 = 1 | y_4 = 1) against Gauss-Hermite integration over
    # the fixed effect of the chain law
    n = 1_000_000
    panel = simulate_panel(SPEC_31, DgpConfig(n_individuals=n, n_periods=5,
                                              sigma_eta_sq=0.5, seed=17))
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    eta = nodes * math.sqrt(2 * 0.5)
    w = weights / math.sqrt(math.pi)

    p4 = expit(eta + SPEC_31.effect(1))  # P(y_1 = 1 | eta)
    for s in (2, 3, 4):
        p4 = p4 * expit(eta + SPEC_31.gamma + SPEC_31.effect(s)) \
            + (1 - p4) * expit(eta + SPEC_31.effect(s))
    p5_given_4 = expit(eta + SPEC_31.gamma + SPEC_31.effect(5))
    expected = float(np.sum(w * p4 * p5_given_4) / np.sum(w * p4))

    mask = panel.col(4) == 1
    n4 = int(mask.sum())
    observed = float(panel.col(5)[mask].mean())
    se = math.sqrt(expected * (1 - expected) / n4)
    assert abs(observed - expected) < 3 * se


@pytest.mark.parametrize("spec", [SPEC_31, SPEC_TREND], ids=["dummies", "trend"])
def test_history_law_is_a_converged_distribution(spec):
    law = history_law(spec, 8, 0.5)
    assert law.shape == (256,) and law.min() > 0.0
    assert abs(law.sum() - 1.0) < 1e-14
    # twice the nodes move no probability by 1e-12
    nodes, weights = np.polynomial.hermite.hermgauss(128)
    fine = weights @ chain_law(spec, math.sqrt(2.0 * 0.5) * nodes, 8) / math.sqrt(math.pi)
    assert np.abs(fine - law).max() < 1e-12


def test_history_law_matches_logit_chain_without_heterogeneity():
    # sigma = 0: every node sits at eta = 0, so each history's probability is
    # the plain product of its logit transitions
    law = history_law(SPEC_31, 4, 0.0)
    for code in range(16):
        y = [(code >> (3 - k)) & 1 for k in range(4)]
        pr, prev = 1.0, 0  # the first period has no lag term
        for t, yt in enumerate(y, start=1):
            p = _logistic(SPEC_31.gamma * prev + SPEC_31.effect(t))
            pr *= p if yt else 1.0 - p
            prev = yt
        assert law[code] == pytest.approx(pr, rel=1e-14)


@pytest.mark.parametrize("spec", [SPEC_31, SPEC_TREND], ids=["dummies", "trend"])
def test_history_law_fits_simulated_panel(spec):
    # chi-square goodness of fit of simulate_panel's 256-cell history
    # histogram against the exact law (measured p: 0.49 dummies, 0.45 trend)
    n = 2_000_000
    panel = simulate_panel(spec, DgpConfig(n_individuals=n, n_periods=8,
                                           sigma_eta_sq=0.5, seed=29))
    codes = panel.y.astype(np.int64) @ (1 << np.arange(7, -1, -1))
    observed = np.bincount(codes, minlength=256)
    expected = n * history_law(spec, 8, 0.5)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(stat, df=255) > 1e-3


def test_simulate_histogram_counts_and_replay():
    cfg = DgpConfig(n_individuals=10**8, n_periods=8, sigma_eta_sq=0.5, seed=11, stream=3)
    a = simulate_histogram(SPEC_31, cfg)
    assert a.dtype == np.int64 and a.shape == (256,) and a.sum() == 10**8
    # entry k counts history_law's history k, within a few binomial sds
    law = history_law(SPEC_31, 8, 0.5)
    assert (np.abs(a - 10**8 * law) <= 6 * np.sqrt(10**8 * law) + 1).all()
    b = simulate_histogram(SPEC_31, cfg)
    assert np.array_equal(a, b)
    c = simulate_histogram(SPEC_31, DgpConfig(n_individuals=10**8, n_periods=8,
                                              sigma_eta_sq=0.5, seed=11, stream=4))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [2**53, 2**63, 2**70])
def test_simulate_histogram_refuses_counts_past_the_exact_range(monkeypatch, n):
    # with `_check_total`'s text, before the draw: numpy's multinomial raises an
    # OverflowError from 2**63 on and would draw every count below it
    cfg = DgpConfig(n_individuals=n, n_periods=8, sigma_eta_sq=0.5)
    with monkeypatch.context() as patch:
        patch.setattr(_rng, "keyed_generator", None)    # no draw
        with pytest.raises(ValueError, match=f"^panel of {n} individuals exceeds "
                                             "the exact range 2\\*\\*53$"):
            simulate_histogram(SPEC_31, cfg)
    cfg = DgpConfig(n_individuals=2**53 - 1, n_periods=8, sigma_eta_sq=0.5)
    assert simulate_histogram(SPEC_31, cfg).sum() == 2**53 - 1


def test_history_law_refuses_too_many_periods():
    spec = TimeTrendSpec(gamma=0.5, phi_coef=0.1)
    with pytest.raises(ValueError, match="2\\*\\*T"):
        history_law(spec, 17, 0.5)
