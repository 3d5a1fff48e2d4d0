import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_logit import PanelData, aggregate
from panel_logit.kernels import DAGGER_CELLS, row_cells
from panel_logit.panel import ROW_BLOCK
from scalar_kernels import SELECTORS, bar, theta_kernels, xi_kernels


def _all_bars(stats):
    return np.array([[[bar(stats, kind, j, sel) for sel in SELECTORS] for j in range(1, 5)]
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
            assert bar(stats, "theta", j, sel) == th[j - 1] * weight
            assert bar(stats, "xi", j, sel) == xk[j - 1] * weight
    assert bar(stats, "theta", 1, "-") == 1.0
    assert bar(stats, "theta", 1, "-+") == 1.0


def test_partition_identity():
    rng = np.random.default_rng(7)
    panel = _panel_from_rows(rng.integers(0, 2, size=(300, 5)))
    stats = aggregate(panel, 4)
    for kind, fn in (("theta", theta_kernels), ("xi", xi_kernels)):
        for j in range(1, 5):
            uncond = np.mean([fn(tuple(row))[j - 1] for row in panel.y])
            assert bar(stats, kind, j, "-") + bar(stats, kind, j, "+") == pytest.approx(uncond, abs=1e-15)


def _histories(n_periods: int) -> np.ndarray:
    """Row ``k``: the outcomes, period 1 first, that are the binary digits of ``k``."""
    return (np.arange(1 << n_periods)[:, None] >> np.arange(n_periods - 1, -1, -1)) & 1


def test_counts_weight_rows_like_repeated_rows():
    # a history table's count of history k weighs it like k's row repeated
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 4, size=64)
    repeated = _panel_from_rows(np.repeat(_histories(6), counts, axis=0))
    for t in (4, 5):
        weighted, want = aggregate(counts, t), aggregate(repeated, t)
        assert weighted.summands.counts.sum() == want.summands.counts.sum() == counts.sum()
        assert np.array_equal(weighted.summands.counts, want.summands.counts)
        assert np.array_equal(_all_bars(weighted), _all_bars(want))


@pytest.mark.parametrize("table, t, message", [
    (np.ones((2, 32), dtype=np.int64), 4, r"int64 counts, got int64 of shape \(2, 32\)$"),
    (np.ones(48, dtype=np.int64), 4, r"int64 counts, got int64 of shape \(48,\)$"),
    (np.ones(0, dtype=np.int64), 4, r"int64 counts, got int64 of shape \(0,\)$"),
    (np.ones(32, dtype=np.int32), 4, r"int64 counts, got int32 of shape \(32,\)$"),
    (np.zeros(32, dtype=np.int64), 4, "cannot aggregate an empty history table"),
    (np.ones(32, dtype=np.int64), 3, r"window 3 needs periods 0\.\.4, the table holds 1\.\.5"),
    (np.ones(64, dtype=np.int64), 6, r"window 6 needs periods 3\.\.7, the table holds 1\.\.6"),
], ids=["2-d", "not-a-power-of-two", "no-entries", "int32", "all-zero", "before-period-1",
        "past-period-T"])
def test_history_table_is_refused(table, t, message):
    with pytest.raises(ValueError, match=message):
        aggregate(table, t)


def test_selector_nesting_brute_force():
    rng = np.random.default_rng(21)
    panel = _panel_from_rows(rng.integers(0, 2, size=(150, 5)))
    stats = aggregate(panel, 4)
    for j in range(1, 5):
        manual = np.mean([theta_kernels(tuple(r))[j - 1] * (1 - r[1]) * r[0]
                          for r in panel.y])
        assert bar(stats, "theta", j, "-+") == pytest.approx(manual, abs=1e-15)


def test_interacted_bar_nested_within_selector():
    # kernels of constant sign shrink in magnitude under the extra indicator
    rng = np.random.default_rng(17)
    panel = _panel_from_rows(rng.integers(0, 2, size=(200, 5)))
    stats = aggregate(panel, 4)
    for j in (1, 2, 4):  # constant-sign members of the first kernel family
        assert abs(bar(stats, "theta", j, "-+")) <= abs(bar(stats, "theta", j, "-")) + 1e-15
        assert abs(bar(stats, "theta", j, "++")) <= abs(bar(stats, "theta", j, "+")) + 1e-15


def test_bars_bounded_by_one():
    rng = np.random.default_rng(3)
    panel = _panel_from_rows(rng.integers(0, 2, size=(40, 5)))
    stats = aggregate(panel, 4)
    assert np.all(np.abs(_all_bars(stats)) <= 1.0)


def _int64_cells(y, counts, first):
    """Window cells from an int64 code over rows of ``y``, columns ``first ..
    first + 4``: the count ``aggregate`` must reproduce in any layout."""
    code = np.zeros(len(y), dtype=np.int64)
    for k in range(first, first + 5):
        code = (code << 1) | y[:, k].astype(np.int64)
    return np.bincount(code, weights=counts, minlength=32)


@pytest.mark.parametrize("layout", ["C", "F", "column-slice", "counted"])
def test_one_byte_code_matches_int64_code(layout):
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, size=(997, 8)).astype(np.int8)
    counts = np.ones(len(y), dtype=np.int64)
    t0 = 1
    if layout == "F":
        y = np.asfortranarray(y)
    elif layout == "column-slice":
        y, t0 = y[:, 2:], 3  # neither C- nor F-contiguous
    elif layout == "counted":
        # the rows weighted by large counts, as a history table over periods 1..8
        counts = rng.integers(0, 10**9, size=len(y))
        codes = y.astype(np.int64) @ (1 << np.arange(7, -1, -1))
        table = np.bincount(codes, weights=counts, minlength=256).astype(np.int64)
    panel = table if layout == "counted" else PanelData(y=y, ids=np.arange(len(y)), t0=t0)
    for t in range(t0 + 3, t0 + y.shape[1] - 1):
        want = _int64_cells(y, counts, t - 3 - t0)
        assert np.array_equal(aggregate(panel, t).summands.counts, want)
    if layout == "column-slice":
        # dropping periods reads the same cells through a view
        tail = PanelData(y=y, ids=np.arange(len(y)), t0=t0).drop_prefix(1)
        assert np.array_equal(aggregate(tail, 7).summands.counts, _int64_cells(y, counts, 1))


def _one_shot_cells(panel, t):
    """The window cells from one code over all rows and one ``bincount``:
    what ``aggregate`` must give, block by block."""
    code = np.zeros(panel.n, dtype=np.uint8)
    for s in range(t - 3, t + 2):
        code = (code << 1) | panel.col(s).view(np.uint8)
    return np.bincount(code, minlength=32).astype(np.float64)


# a block is ROW_BLOCK words of eight rows: n spans word blocks, a last
# block of bytes and odd n, where drop_prefix starts columns off 8-byte words
@pytest.mark.parametrize("n", [1, 7, 8, 9, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                               2 * ROW_BLOCK + 3, 8 * ROW_BLOCK - 1, 8 * ROW_BLOCK,
                               8 * ROW_BLOCK + 1, 16 * ROW_BLOCK + 3])
def test_row_blocks_count_every_row_once(n):
    rng = np.random.default_rng(n)
    y = rng.integers(0, 2, size=(n, 7)).astype(np.int8)
    unit = PanelData(y=y, ids=np.arange(n))
    for panel in (unit, unit.drop_prefix(2)):
        for t in range(panel.t0 + 3, panel.t_last):
            got = aggregate(panel, t).summands.counts
            assert got.tobytes() == _one_shot_cells(panel, t).tobytes()


def test_aggregate_traces_only_a_block():
    # neither the code nor the unit counts are ever made for all rows at once
    rng = np.random.default_rng(4)
    panel = PanelData(y=rng.integers(0, 2, size=(2_000_000, 5), dtype=np.int8),
                      ids=np.arange(2_000_000))
    tracemalloc.start()
    try:
        aggregate(panel, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_aggregate_of_a_history_table_traces_no_copy_of_it():
    # the reshape-sum reads the table in place: numpy's 64 KiB reduction
    # buffer, a small share of the 512 KiB a copy would take
    rng = np.random.default_rng(4)
    table = rng.integers(0, 2**30, size=2**16)
    for t in (4, 9, 15):
        tracemalloc.start()
        try:
            cells = aggregate(table, t).summands.counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells.sum() == table.sum()
        assert peak < 2**17, (t, peak)


def test_window_out_of_range_rejected():
    panel = _panel_from_rows([[0, 1, 0, 1, 0]])
    with pytest.raises(ValueError):
        aggregate(panel, 5)  # needs period 6
    with pytest.raises(ValueError):
        aggregate(panel, 2)  # needs period 0


def test_empty_panel_rejected():
    # aggregate never sees an empty panel: it cannot be built, as the
    # header-only file the writer wrote of one could not be read
    for shape in ((0, 5), (3, 0)):
        with pytest.raises(ValueError, match=re.escape(
                f"a panel needs individuals and periods, got shape {shape}")):
            PanelData(y=np.zeros(shape, dtype=np.int8))


def test_partial_window_without_pre_period():
    # five stored periods: the window starting at the first stored period
    # lacks its first period t-3
    rng = np.random.default_rng(5)
    panel = _panel_from_rows(rng.integers(0, 2, size=(50, 5)), t0=4)
    with pytest.raises(ValueError, match="window 6 needs period 3, panel stores 4..8"):
        aggregate(panel, 6)
    aggregate(panel, 7)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 120))
def test_window_t_minus_1_tables_match_fresh_aggregate(seed, n):
    # six stored periods: window 6 reads periods 3..7, window 5 reads 2..6
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 10**6, size=n)
    counts[0] += 1
    # n histories of periods 2..7 with their counts, as a table over periods 1..7
    codes = rng.integers(0, 2**6, size=n)
    table = np.bincount(codes, weights=counts, minlength=2**7).astype(np.int64)
    got, want = aggregate(table, 6), aggregate(table, 5)
    assert got.summands.counts.sum() == want.summands.counts.sum() == counts.sum()
    cells, cells_tm1 = got.summands.counts, want.summands.counts

    def mean(c, table):
        return (np.tensordot(c, table, axes=1) / c.sum()).tobytes()

    # family C's rows 5..8 over window t's cells are its rows 1..4 at window t - 1
    y, x = row_cells("C")
    assert mean(cells, y[:, 4:]) == mean(cells_tm1, y[:, :4])
    assert mean(cells, x[:, 4:]) == mean(cells_tm1, x[:, :4])
    for family, kind, sel in (("A", "theta", "-"), ("B", "xi", "+")):
        scalar = np.array([bar(want, kind, j, sel) for j in range(1, 5)])
        assert mean(cells, DAGGER_CELLS[family]) == scalar.tobytes()
