import numpy as np
import pytest

from panel_logit import (DgpConfig, PanelData, TimeDummiesSpec, TimeTrendSpec,
                         estimate_panel, simulate_panel, workflow)

SPEC_DUMMIES = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
SPEC_TREND = TimeTrendSpec(gamma=1.0, phi_coef=0.3)


def _history_counts(panel: PanelData) -> PanelData:
    """The panel as counts over every outcome history, one row per history."""
    t = panel.n_periods
    codes = panel.y.astype(np.int64) @ (1 << np.arange(t - 1, -1, -1))
    rows = np.arange(1 << t)
    y = (rows[:, None] >> np.arange(t - 1, -1, -1)) & 1
    return PanelData(y=y, ids=rows, t0=panel.t0,
                     counts=np.bincount(codes, minlength=1 << t))


def _outputs(result) -> dict[str, np.ndarray]:
    out = {"alpha": result.transformed.alpha, "vcov": result.transformed.vcov}
    orig = result.original
    for name in ("gamma", "dtd_t", "dtd_tp1", "phi_coef", "dtd_tm1"):
        p = getattr(orig, name)
        if p is not None:
            out[name] = np.array([p.value, p.se])
    if result.two_step is not None:
        two = result.two_step
        out["two_step"] = np.array([two.ratio, two.var_ratio, two.var_ratio_corrected])
    if result.wald is not None:
        out["wald"] = np.array([result.wald.statistic])
    return out


@pytest.mark.parametrize("spec, family, variant, two_step, wald", [
    (SPEC_DUMMIES, "A", "minus-3-7", True, "ab-dummies"),
    (SPEC_DUMMIES, "B", "minus-1-5", True, None),
    (SPEC_TREND, "C", "full", False, "c-trend"),
])
def test_history_counts_estimate_like_the_panel(spec, family, variant, two_step, wald):
    # seed 2 leaves every estimator here nondegenerate at this N; what is
    # under test is that both representations give the same output
    panel = simulate_panel(spec, DgpConfig(n_individuals=1_000_000, n_periods=8,
                                           sigma_eta_sq=0.5, seed=2))
    counted = _history_counts(panel)
    assert counted.n == panel.n and counted.n_rows == 256
    kwargs = dict(two_step=two_step, wald=wald)
    expected = _outputs(estimate_panel(panel.drop_prefix(3), family, variant, 7, **kwargs))
    got = _outputs(estimate_panel(counted.drop_prefix(3), family, variant, 7, **kwargs))
    # both representations collapse to the same table of history counts
    assert got.keys() == expected.keys()
    for name, value in expected.items():
        assert np.array_equal(got[name], value), name


def _assert_same_aggregate(got, want):
    assert (got.window_t, got.n, got.has_interacted) == (want.window_t, want.n,
                                                         want.has_interacted)
    for name in ("theta_bar", "xi_bar"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert got.summands.periods == want.summands.periods
    for name in ("codes", "counts", "theta", "xi", "y_tm2", "y_tm3"):
        a, b = getattr(got.summands, name), getattr(want.summands, name)
        assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b)), name


def test_each_panel_is_collapsed_once(monkeypatch):
    real = workflow.aggregate
    calls = []

    def counting(panel, t):
        calls.append(t)
        return real(panel, t)

    monkeypatch.setattr(workflow, "aggregate", counting)
    dgp = DgpConfig(n_individuals=200_000, n_periods=8, sigma_eta_sq=0.5, seed=2)
    panel = simulate_panel(SPEC_DUMMIES, dgp).drop_prefix(3)
    cache: dict = {}
    estimate_panel(panel, "A", "minus-3-7", 7, two_step=True, stats_cache=cache)
    estimate_panel(panel, "B", "minus-1-5", 7, two_step=True, stats_cache=cache)
    estimate_panel(panel, "A", "minus-3-7", 7, wald="ab-dummies", stats_cache=cache)
    assert calls == [7] and sorted(cache) == [6, 7]
    # the window built from the cached table is the one a fresh pass gives
    _assert_same_aggregate(cache[6], real(panel, 6))

    # without a cache (the CLI's call) family C still collapses once
    calls.clear()
    trend = simulate_panel(SPEC_TREND, dgp).drop_prefix(3)
    estimate_panel(trend, "C", "full", 7, wald="c-trend")
    assert calls == [7]
