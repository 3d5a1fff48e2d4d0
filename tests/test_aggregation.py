import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_logit import PanelData, aggregate, theta_kernels, xi_kernels
from panel_logit.aggregation import SELECTORS


def _all_bars(stats):
    return np.array([[[stats.bar(kind, j, sel) for sel in SELECTORS] for j in range(1, 5)]
                     for kind in ("theta", "xi")])


def _panel_from_rows(rows, t0=1):
    y = np.array(rows, dtype=np.int8)
    return PanelData(y=y, ids=np.arange(len(rows)), t0=t0)


def test_all_zero_panel_gives_zero_bars():
    panel = _panel_from_rows([[0] * 5] * 4)
    stats = aggregate(panel, 4)
    assert np.all(_all_bars(stats) == 0.0)


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
    assert np.array_equal(weighted.summands.counts, repeated.summands.counts)
    assert np.array_equal(_all_bars(weighted), _all_bars(repeated))


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
    assert np.all(np.abs(_all_bars(stats)) <= 1.0)


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
    # five stored periods: the window starting at the first stored period
    # lacks its first period t-3
    rng = np.random.default_rng(5)
    panel = _panel_from_rows(rng.integers(0, 2, size=(50, 5)), t0=4)
    with pytest.raises(ValueError, match="window 6 needs period 3, panel stores 4..8"):
        aggregate(panel, 6)
    aggregate(panel, 7)


def test_bar_back_one_refuses_interacted_selectors():
    stats = aggregate(_panel_from_rows([[0, 1, 0, 1, 0]]), 4)
    for sel in ("-+", "++"):
        with pytest.raises(ValueError, match="window 3 needs period 0, outside window 4"):
            stats.bar("theta", 1, sel, back=1)
    stats.bar("theta", 1, "+", back=1)
    with pytest.raises(ValueError, match="back must be 0 or 1"):
        stats.bar("theta", 1, "+", back=-1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
def test_bar_back_one_matches_fresh_aggregate(seed, n):
    # six stored periods: window 6 reads periods 3..7, window 5 reads 2..6
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 10**6, size=n)
    counts[0] += 1
    panel = PanelData(y=rng.integers(0, 2, size=(n, 6)), ids=np.arange(n), t0=2,
                      counts=counts)
    got, want = aggregate(panel, 6), aggregate(panel, 5)
    assert got.n == want.n
    for kind in ("theta", "xi"):
        for j in range(1, 5):
            for sel in ("-", "+"):
                assert got.bar(kind, j, sel, back=1) == want.bar(kind, j, sel)


def test_selector_order_stable():
    assert SELECTORS == ("-", "+", "-+", "++")
