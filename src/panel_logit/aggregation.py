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
steps on bytes).  The codes are counted two rows at a time: the buffer,
read as uint16, holds one key per pair of rows, the two codes in its two
bytes, and each block's ``bincount`` of the keys is added to one int64
table of 33 x 256 pair counts.  An odd last row is paired with a padding
code, 32.  The cells are the table's two marginals added, the count of
each code as either byte, whichever byte order the machine has; the
padding code's count is dropped.  It refuses a panel lacking any of the
five periods.  A history table (``model.simulate_histogram``) gives its
cells by a reshape-sum, at a cost that does not grow with N.  Everything
after the count runs on 32 cells.  The rows at window ``t - 1`` (family C's
second half and the two-step's dagger averages) read ``y_{t-3} .. y_t``,
four of the same five periods, so they need no aggregate of their own.

The cell weights are the integer counts of a sample, or the exact cell
probabilities of the population (``oracle.population_aggregates``).  Their
total N is the sample size (1 for the population); means are cell sums
divided by N.  For counts every sum is an integer below 2**53 and exact in
float64, so neither the cells nor the means depend on the block size, on
how rows are paired or on the order in which rows and cells are added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panel import ROW_BLOCK, PanelData, _check_total, _is_integer

_PAD = 32   # the code after an odd last row, one past the 32 window codes
_KEYS = (_PAD + 1) * 256   # the uint16 keys of two codes or a code and _PAD


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
    # one byte past the codes holds _PAD after an odd last row
    code = np.empty(min(panel.n, block_rows) + 1, dtype=np.uint8)
    # pairs[k] counts the uint16 keys k: two rows' codes, or a code and _PAD
    pairs = np.zeros(_KEYS, dtype=np.int64)
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
        code[block.size] = _PAD
        keys = code[:block.size + block.size % 2].view(np.uint16)
        pairs += np.bincount(keys, minlength=_KEYS)
    # each key's two bytes are its two codes, in either byte order: the
    # table's two marginals count every row once, and _PAD's count is dropped
    table = pairs.reshape(_PAD + 1, 256)[:, :_PAD + 1]
    # float64 totals are exact integers: a panel holds far fewer than 2**53 rows
    return from_cells(t, (table.sum(0) + table.sum(1))[:_PAD].astype(np.float64))


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
