import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_logit import PanelData, aggregate, merge_stats, shard_aggregate, theta_kernels, xi_kernels
from panel_logit.aggregation import SELECTORS
from panel_logit.oracle import population_aggregates, spec_with_steps


def _panel_from_rows(rows, t0=1):
    y = np.array(rows, dtype=np.int8)
    return PanelData(y=y, ids=np.arange(len(rows)), t0=t0)


def test_all_zero_panel_gives_zero_bars():
    panel = _panel_from_rows([[0] * 5] * 4)
    stats = aggregate(panel, 4)
    assert np.all(stats.theta_bar == 0.0)
    assert np.all(stats.xi_bar == 0.0)


def test_single_row_matches_direct_kernels():
    w = (1, 0, 0, 1, 0)
    panel = _panel_from_rows([list(w)])
    stats = aggregate(panel, 4)
    th, xk = theta_kernels(w), xi_kernels(w)
    y3, y2 = w[0], w[1]
    sels = {"-": 1 - y2, "+": y2, "-+": (1 - y2) * y3, "++": y2 * y3}
    for j in range(1, 5):
        for sel, weight in sels.items():
            assert stats.bar("theta", j, sel) == th[j - 1] * weight
            assert stats.bar("xi", j, sel) == xk[j - 1] * weight
    assert stats.bar("theta", 1, "-") == 1.0
    assert stats.bar("theta", 1, "-+") == 1.0


def test_two_equal_shards_match_full_pass():
    rng = np.random.default_rng(0)
    panel = _panel_from_rows(rng.integers(0, 2, size=(64, 6)))
    full = aggregate(panel, 4)
    sharded = shard_aggregate(panel, 4, 2)
    assert np.array_equal(full.theta_bar, sharded.theta_bar)
    assert np.array_equal(full.xi_bar, sharded.xi_bar)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 120), shards=st.integers(1, 7))
def test_shard_merge_is_exact(seed, n, shards):
    # rows carry frequency counts, so shards must split rows with their counts
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 10**6, size=n)
    panel = PanelData(y=rng.integers(0, 2, size=(n, 5)), ids=np.arange(n), counts=counts)
    full = aggregate(panel, 4)
    merged = shard_aggregate(panel, 4, min(shards, n))
    assert np.array_equal(full.theta_bar, merged.theta_bar)
    assert np.array_equal(full.xi_bar, merged.xi_bar)
    assert merged.n == full.n == counts.sum()
    assert merged.summands.periods == full.summands.periods
    for name in ("codes", "counts", "theta", "xi", "y_tm2", "y_tm3"):
        got, want = getattr(merged.summands, name), getattr(full.summands, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_merge_refuses_population_aggregates():
    # exact probabilities have no sample behind them: nothing to add up
    spec = spec_with_steps(1.0, 0.2, -0.1)
    pop = population_aggregates(spec, 5, (-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(ValueError, match="sample"):
        merge_stats([pop, pop])


def test_partition_identity():
    rng = np.random.default_rng(7)
    panel = _panel_from_rows(rng.integers(0, 2, size=(300, 5)))
    stats = aggregate(panel, 4)
    for kind, fn in (("theta", theta_kernels), ("xi", xi_kernels)):
        for j in range(1, 5):
            uncond = np.mean([fn(tuple(row))[j - 1] for row in panel.y])
            assert stats.bar(kind, j, "-") + stats.bar(kind, j, "+") == pytest.approx(uncond, abs=1e-15)


def test_counts_weight_rows_like_repeated_rows():
    rng = np.random.default_rng(8)
    y = rng.integers(0, 2, size=(40, 6))
    counts = rng.integers(0, 4, size=40)
    weighted = aggregate(PanelData(y=y, ids=np.arange(40), counts=counts), 4)
    repeated = aggregate(_panel_from_rows(np.repeat(y, counts, axis=0)), 4)
    assert weighted.n == repeated.n == counts.sum()
    assert np.array_equal(weighted.theta_bar, repeated.theta_bar)
    assert np.array_equal(weighted.xi_bar, repeated.xi_bar)


def test_selector_nesting_brute_force():
    rng = np.random.default_rng(21)
    panel = _panel_from_rows(rng.integers(0, 2, size=(150, 5)))
    stats = aggregate(panel, 4)
    for j in range(1, 5):
        manual = np.mean([theta_kernels(tuple(r))[j - 1] * (1 - r[1]) * r[0]
                          for r in panel.y])
        assert stats.bar("theta", j, "-+") == pytest.approx(manual, abs=1e-15)


def test_interacted_bar_nested_within_selector():
    # kernels of constant sign shrink in magnitude under the extra indicator
    rng = np.random.default_rng(17)
    panel = _panel_from_rows(rng.integers(0, 2, size=(200, 5)))
    stats = aggregate(panel, 4)
    for j in (1, 2, 4):  # constant-sign members of the first kernel family
        assert abs(stats.bar("theta", j, "-+")) <= abs(stats.bar("theta", j, "-")) + 1e-15
        assert abs(stats.bar("theta", j, "++")) <= abs(stats.bar("theta", j, "+")) + 1e-15


def test_bars_bounded_by_one():
    rng = np.random.default_rng(3)
    panel = _panel_from_rows(rng.integers(0, 2, size=(40, 5)))
    stats = aggregate(panel, 4)
    assert np.all(np.abs(stats.theta_bar) <= 1.0)
    assert np.all(np.abs(stats.xi_bar) <= 1.0)


def test_window_out_of_range_rejected():
    panel = _panel_from_rows([[0, 1, 0, 1, 0]])
    with pytest.raises(ValueError):
        aggregate(panel, 5)  # needs period 6
    with pytest.raises(ValueError):
        aggregate(panel, 2)  # needs period 0


def test_empty_panel_rejected():
    panel = PanelData(y=np.empty((0, 5), dtype=np.int8), ids=np.empty(0), t0=1)
    with pytest.raises(ValueError):
        aggregate(panel, 4)


def test_partial_window_without_pre_period():
    # five stored periods: the window starting at the first stored period has
    # no t-3 column, so interacted selectors are unavailable
    rng = np.random.default_rng(5)
    panel = _panel_from_rows(rng.integers(0, 2, size=(50, 5)), t0=4)
    stats = aggregate(panel, 6)
    assert not stats.has_interacted
    assert np.isnan(stats.theta_bar[:, 2:]).all()
    assert np.isfinite(stats.theta_bar[:, :2]).all()
    stats.bar("theta", 1, "-")
    with pytest.raises(ValueError):
        stats.bar("theta", 1, "-+")


def test_merge_requires_matching_windows():
    rng = np.random.default_rng(9)
    a = aggregate(_panel_from_rows(rng.integers(0, 2, size=(10, 6))), 4)
    b = aggregate(_panel_from_rows(rng.integers(0, 2, size=(10, 6))), 5)
    with pytest.raises(ValueError):
        merge_stats([a, b])


def test_selector_order_stable():
    assert SELECTORS == ("-", "+", "-+", "++")
