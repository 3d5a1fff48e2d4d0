"""Sample averages of the window kernels, from the 32-cell window table.

A window ``t`` is the five periods ``t-3 .. t+1``.  Its eight kernels are
averaged under four selectors built from the two pre-window outcomes:

====  =======================================
``-``   weight ``1 - y_{t-2}``
``+``   weight ``y_{t-2}``
``-+``  weight ``(1 - y_{t-2}) * y_{t-3}``
``++``  weight ``y_{t-2} * y_{t-3}``
====  =======================================

Every summand is a product of 0/1 indicators with sign, hence an integer in
{-1, 0, 1}, and a function of the five-period window
``(y_{t-3}, .., y_{t+1})`` alone.  Every estimator, its variance and the
two-step correction therefore depend on the panel only through how many
individuals share each of the 32 window patterns.  ``aggregate`` counts
them in one O(N) pass, whatever the number of stored periods.  It reads
the five period columns, each a contiguous run of bytes in ``PanelData``'s
period-major layout, ``ROW_BLOCK`` rows at a time: each block's columns
are packed into a one-byte 5-bit window code per row, in one reused
buffer, and the block's ``bincount`` of the codes, weighted by the row
frequencies, is added to the cells.  When every row shares one broadcast
count (a simulated or read panel), the codes are counted unweighted and
the cells scaled by that count once.  It refuses a panel lacking any of
the five periods.  Everything after the count runs
on 32 cells.  The rows at window ``t - 1`` (family C's second half and the
two-step's dagger averages) read ``y_{t-3} .. y_t``, four of the same five
periods, with the ``-``/``+`` selectors only: ``bar(.., back=1)`` reads
them from the cells of window ``t``.

The cell weights are the integer counts of a sample, or the exact cell
probabilities of the population (``oracle.population_aggregates``, ``n =
0``: no sample).  Means are cell sums divided by the total weight.  For
counts every sum is an integer below 2**53 and exact in float64, so
neither the cells nor the means depend on the block size or on the order
in which rows and cells are added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _theta_components, _xi_components, all_windows
from .panel import ROW_BLOCK, PanelData

SELECTORS = ("-", "+", "-+", "++")
_SEL_INDEX = {s: k for k, s in enumerate(SELECTORS)}
_KIND_INDEX = {"theta": 0, "xi": 1}

# outcomes (y_{t-3}, .., y_{t+1}), kernel values and selector weights of the 32
# windows, in window-code order (code = 16 y_{t-3} + 8 y_{t-2} + 4 y_{t-1} + 2 y_t + y_{t+1})
WINDOW_COLUMNS = np.array(all_windows(), dtype=np.int64).T
_Y3, _Y2, _Y1, _Y0, _YP = WINDOW_COLUMNS
_KERNELS = np.array((_theta_components(_Y1, _Y0, _YP), _xi_components(_Y1, _Y0, _YP)))
_SELECTOR_WEIGHTS = np.array((1 - _Y2, _Y2, (1 - _Y2) * _Y3, _Y2 * _Y3))
# _CELL_TABLE[back, kind, j - 1, selector, code]: kernel j times the selector
# at window t - back, for each window-t cell.  Window t - 1 reads the first
# four periods of window t, so its code is the cell code shifted right by
# one, with y_{t-4} read as 0 (only the interacted selectors would use it).
_CELL_TABLE = np.array([(_KERNELS[:, :, None, :] * _SELECTOR_WEIGHTS[None, None])
                        [..., np.arange(32) >> back] for back in (0, 1)], dtype=np.float64)


def cell_kernel(kind: str, j: int, selector: str, back: int = 0) -> np.ndarray:
    """Kernel ``j`` (1..4) of a family times a selector, at window ``t -
    back``, for each of the 32 window-``t`` cells (values in {-1, 0, 1})."""
    return _CELL_TABLE[back, _KIND_INDEX[kind], j - 1, _SEL_INDEX[selector]]


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
    """The 32 window-cell weights at one window and their kernel means.

    ``n`` is the number of individuals, 0 for the population.
    """

    window_t: int
    n: int
    summands: KernelSummands

    def bar(self, kind: str, j: int, selector: str, back: int = 0) -> float:
        """Mean of kernel ``j`` (1..4) of a family under a selector, at window
        ``t - back`` (``back`` 0 or 1)."""
        if not 1 <= j <= 4:
            raise ValueError(f"kernel index must be 1..4, got {j}")
        if back not in (0, 1):
            raise ValueError(f"back must be 0 or 1, got {back}")
        if back == 1 and selector in ("-+", "++"):
            t = self.window_t
            raise ValueError(f"selector {selector!r} at window {t - 1} needs period "
                             f"{t - 4}, outside window {t}")
        counts = self.summands.counts
        return float(np.dot(counts, cell_kernel(kind, j, selector, back)) / counts.sum())


def from_cells(t: int, cells: np.ndarray, n: int) -> AggregateStats:
    """The aggregate at window ``t`` of the 32 window-cell weights.

    ``cells`` are the counts of a sample of ``n`` individuals, or the
    probabilities of the population (``n = 0``), indexed by window code.
    """
    return AggregateStats(window_t=t, n=n, summands=KernelSummands(counts=cells))


def aggregate(panel: PanelData, t: int) -> AggregateStats:
    """Count the window cells of ``panel`` at window index ``t``.

    Requires the stored periods ``t-3 .. t+1``; each row counts as
    ``panel.counts`` individuals.  Other stored periods are not read.
    """
    if panel.n == 0:
        raise ValueError("cannot aggregate an empty panel")
    for s in range(t - 3, t + 2):
        if not panel.has_period(s):
            raise ValueError(f"window {t} needs period {s}, panel stores "
                             f"{panel.t0}..{panel.t_last}")
    # outcomes are 0/1 int8, so the bytes of each column are the bits
    columns = [panel.col(s).view(np.uint8) for s in range(t - 3, t + 2)]
    code = np.empty(min(panel.n_rows, ROW_BLOCK), dtype=np.uint8)
    # a broadcast count (zero stride) weighs every row alike: count the rows
    # unweighted and scale the cells by it once
    shared = panel.counts.strides == (0,)
    # float64 totals are exact integers: PanelData keeps N below 2**53
    cells = np.zeros(32)
    for start in range(0, panel.n_rows, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        block = code[:min(ROW_BLOCK, panel.n_rows - start)]
        block[:] = columns[0][rows]
        for column in columns[1:]:
            block <<= 1
            block |= column[rows]
        cells += np.bincount(block, None if shared else panel.counts[rows], minlength=32)
    if shared:
        cells *= panel.counts[0]
    return from_cells(t, cells, panel.n)
