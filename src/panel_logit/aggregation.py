"""The 32-cell window table of a panel or of a history table.

A window ``t`` is the five periods ``t-3 .. t+1``.  Every moment row, its
variance and the two-step correction is a function of the five-period
window ``(y_{t-3}, .., y_{t+1})`` alone (``kernels.row_cells`` and
``kernels.DAGGER_CELLS`` tabulate them), so they depend on the panel only
through how many individuals share each of the 32 window patterns.
``aggregate`` counts them in one O(N) pass, whatever the number of stored
periods.  It reads the five period columns, each a contiguous run of
bytes in ``PanelData``'s period-major layout, in blocks of ``ROW_BLOCK``
uint64 words, eight rows a word: a shift-or of each block's column words
packs eight one-byte 5-bit window codes at once, in one reused buffer
(the panel's last block, if its rows fill no whole word, runs the same
steps on bytes), and the block's ``bincount`` of the codes is added to the
cells.  It refuses a panel lacking any of the five periods.  A history
table (``model.simulate_histogram``) gives its cells by a reshape-sum, at a
cost that does not grow with N.  Everything after the count runs on 32
cells.  The rows at window ``t - 1`` (family C's second half and the
two-step's dagger averages) read ``y_{t-3} .. y_t``, four of the same five
periods, so they need no aggregate of their own.

The cell weights are the integer counts of a sample, or the exact cell
probabilities of the population (``oracle.population_aggregates``).  Their
total N is the sample size (1 for the population); means are cell sums
divided by N.  For counts every sum is an integer below 2**53 and exact in
float64, so neither the cells nor the means depend on the block size or on
the order in which rows and cells are added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panel import ROW_BLOCK, PanelData, _check_total, _is_integer


@dataclass(frozen=True)
class KernelSummands:
    """Weights of the 32 window patterns behind one aggregate.

    ``counts[code]`` is the number of individuals whose window
    ``(y_{t-3}, .., y_{t+1})`` has that code in a sample, or its
    probability in the population.
    """

    counts: np.ndarray


@dataclass(frozen=True)
class AggregateStats:
    """The 32 window-cell weights at one window; their total is the
    number of individuals of a sample, 1 for the population."""

    window_t: int
    summands: KernelSummands


def from_cells(t: int, cells: np.ndarray) -> AggregateStats:
    """The aggregate at window ``t`` of the 32 window-cell weights:
    a sample's counts or the population's probabilities, by window code."""
    return AggregateStats(window_t=t, summands=KernelSummands(counts=cells))


def aggregate(panel: PanelData | np.ndarray, t: int) -> AggregateStats:
    """Count the window cells at window index ``t`` of ``panel``, a
    ``PanelData`` or a history table.

    Requires the periods ``t-3 .. t+1``; other periods are not read.
    """
    if not _is_integer(t):
        raise ValueError(f"window must be an integer, got {t!r}")
    if isinstance(panel, np.ndarray):
        return from_cells(t, _table_cells(panel, t))
    for s in range(t - 3, t + 2):
        if not panel.has_period(s):
            raise ValueError(f"window {t} needs period {s}, panel stores "
                             f"{panel.t0}..{panel.t_last}")
    # outcomes are 0/1 int8, so the bytes of each column are the bits
    columns = [panel.col(s).view(np.uint8) for s in range(t - 3, t + 2)]
    # a block is ROW_BLOCK words of eight one-byte codes: a shift-or on a
    # uint64 view packs eight rows, and as no code exceeds 31 no bit crosses
    # into the next row's byte
    block_rows = 8 * ROW_BLOCK
    code = np.empty(min(panel.n, block_rows), dtype=np.uint8)
    # float64 totals are exact integers: a panel holds far fewer than 2**53 rows
    cells = np.zeros(32)
    for start in range(0, panel.n, block_rows):
        rows = slice(start, start + block_rows)
        block = code[:min(block_rows, panel.n - start)]
        # only the last block may hold a part word: it runs on bytes
        word = np.uint64 if block.size % 8 == 0 else np.uint8
        packed = block.view(word)
        packed[:] = columns[0][rows].view(word)
        for column in columns[1:]:
            packed <<= 1
            packed |= column[rows].view(word)
        cells += np.bincount(block, minlength=32)
    return from_cells(t, cells)


def _table_cells(table: np.ndarray, t: int) -> np.ndarray:
    """The window-``t`` cells of a history table, whose entry ``k`` counts
    the histories that spell ``k`` in binary, period 1 first."""
    n_periods = max(table.size.bit_length() - 1, 0)
    if table.ndim != 1 or table.size != 1 << n_periods or table.dtype != np.int64:
        raise ValueError("a history table must be 1-d with 2**T int64 counts, "
                         f"got {table.dtype} of shape {table.shape}")
    if table.min() < 0:
        raise ValueError("history counts must be nonnegative")
    # a float64 total only rounds, where the int64 sum wraps past 2**63
    total = table.sum(dtype=np.float64)
    _check_total(int(table.sum()) if total < 2**62 else int(total))
    if total == 0:
        raise ValueError("cannot aggregate an empty history table")
    if t < 4 or t + 1 > n_periods:
        raise ValueError(f"window {t} needs periods {t - 3}..{t + 1}, "
                         f"the table holds 1..{n_periods}")
    # every partial sum is an integer below 2**53, so the cast is exact
    return table.reshape(1 << (t - 4), 32, -1).sum(axis=(0, 2)).astype(np.float64)
