"""Sample averages of the window kernels, from the 32-cell window table.

For an estimation window ``t`` the eight kernels are averaged under four
selectors built from the two pre-window outcomes:

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
them in one O(N) pass (one ``bincount`` of the 5-bit window code, weighted
by the row frequencies), whatever the number of stored periods, and
``from_cells`` maps the 32 counts to the kernel means.  Everything after
the count runs on 32 cells.  The trend-model rows at window ``t - 1`` read
``y_{t-3} .. y_t``, four of the same five periods: ``window_before`` sums
``y_{t+1}`` out of the table to get them.

The builder takes float weights: the integer counts of a sample, or the
exact cell probabilities of the population (``oracle.population_aggregates``,
``n = 0``: no sample).  Means are cell sums divided by the total weight.  For
counts every sum is an integer below 2**53 and exact in float64, so the
means do not depend on the order in which cells are added.

When the period before the window start (``t - 3``) is not stored in the
panel, the code has four bits and only the ``-``/``+`` selectors can be
formed.  Such partial aggregates (``has_interacted == False``) are what
``window_before`` returns: the trend-model rows and the second-stage
effect-step estimator use only those selectors at window ``t - 1``, which
keeps the five window periods sufficient for every estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _theta_components, _xi_components, all_windows
from .panel import PanelData

SELECTORS = ("-", "+", "-+", "++")
_SEL_INDEX = {s: k for k, s in enumerate(SELECTORS)}

# kernel values and selector weights of the 32 windows, in window-code order
# (code = 16 y_{t-3} + 8 y_{t-2} + 4 y_{t-1} + 2 y_t + y_{t+1})
_Y3, _Y2, _Y1, _Y0, _YP = np.array(all_windows(), dtype=np.int64).T
_THETA_CELLS = np.stack(_theta_components(_Y1, _Y0, _YP), axis=1)
_XI_CELLS = np.stack(_xi_components(_Y1, _Y0, _YP), axis=1)
_SELECTOR_CELLS = np.stack((1 - _Y2, _Y2, (1 - _Y2) * _Y3, _Y2 * _Y3), axis=1)


def _cell_kernels(kind: str, selector: str, back: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernels (32, 4) and selector weights (32,) of each window-``t`` cell,
    evaluated at window ``t - back``.

    Window ``t - 1`` reads the first four periods of window ``t``, so its
    code is the cell code shifted right by one (with ``y_{t-4}`` read as 0,
    which only the interacted selectors would use).
    """
    cell = np.arange(32) >> back
    kern = (_THETA_CELLS if kind == "theta" else _XI_CELLS)[cell]
    return kern, _SELECTOR_CELLS[cell, _SEL_INDEX[selector]]


@dataclass(frozen=True)
class KernelSummands:
    """Weights of the 32 window patterns behind one aggregate.

    ``counts[code]`` is the number of individuals whose window
    ``(y_{t-3}, .., y_{t+1})`` has that code in a sample, or its
    probability in the population.  In a partial aggregate ``y_{t-3}`` is
    not stored and counts as 0, so only the first 16 cells can be nonzero.
    """

    counts: np.ndarray


@dataclass(frozen=True)
class AggregateStats:
    """Kernel averages at one window.

    ``theta_bar``/``xi_bar`` are (4, 4) arrays indexed by (kernel - 1,
    selector) with selectors ordered as in ``SELECTORS``.  Interacted
    columns are NaN when ``has_interacted`` is false.  ``summands`` holds
    the cell weights behind the means; ``n`` is the number of individuals,
    0 for the population.
    """

    window_t: int
    n: int
    theta_bar: np.ndarray
    xi_bar: np.ndarray
    has_interacted: bool = True
    summands: KernelSummands | None = None

    def bar(self, kind: str, j: int, selector: str) -> float:
        """Mean of kernel ``j`` (1..4) of a family under a selector."""
        if not 1 <= j <= 4:
            raise ValueError(f"kernel index must be 1..4, got {j}")
        col = _SEL_INDEX[selector]
        if col >= 2 and not self.has_interacted:
            raise ValueError(f"selector {selector!r} unavailable: window {self.window_t} "
                             "was aggregated without the pre-window period")
        table = self.theta_bar if kind == "theta" else self.xi_bar
        return float(table[j - 1, col])


def from_cells(t: int, cells: np.ndarray, n: int, has_interacted: bool) -> AggregateStats:
    """Kernel means at window ``t`` of the 32 window-cell weights.

    ``cells`` are the counts of a sample of ``n`` individuals, or the
    probabilities of the population (``n = 0``), indexed by window code.
    Without ``has_interacted`` the interacted means are NaN.
    """
    weighted_sel = _SELECTOR_CELLS * cells[:, None]
    total = cells.sum()
    theta_bar = _THETA_CELLS.T @ weighted_sel / total
    xi_bar = _XI_CELLS.T @ weighted_sel / total
    if not has_interacted:
        theta_bar[:, 2:] = np.nan
        xi_bar[:, 2:] = np.nan
    return AggregateStats(window_t=t, n=n, theta_bar=theta_bar, xi_bar=xi_bar,
                          has_interacted=has_interacted,
                          summands=KernelSummands(counts=cells))


def aggregate(panel: PanelData, t: int) -> AggregateStats:
    """Average the window kernels of ``panel`` at window index ``t``.

    Requires stored periods ``t-2 .. t+1``; if ``t-3`` is stored as well the
    interacted selectors are included, otherwise a partial aggregate is
    returned.  Each row counts as ``panel.counts`` individuals.  Other
    stored periods are not read.
    """
    if panel.n == 0:
        raise ValueError("cannot aggregate an empty panel")
    for s in (t - 2, t - 1, t, t + 1):
        if not panel.has_period(s):
            raise ValueError(f"window {t} needs period {s}, panel stores "
                             f"{panel.t0}..{panel.t_last}")
    has_interacted = panel.has_period(t - 3)
    code = np.zeros(panel.n_rows, dtype=np.int64)
    for s in range(t - 3 if has_interacted else t - 2, t + 2):
        code <<= 1
        code |= panel.col(s)
    # float64 totals are exact integers: PanelData keeps N below 2**53
    cells = np.bincount(code, weights=panel.counts, minlength=32)
    return from_cells(t, cells, panel.n, has_interacted)


def window_before(stats: AggregateStats) -> AggregateStats:
    """The partial aggregate at window ``t - 1`` of an aggregate at ``t``.

    Summing ``y_{t+1}`` out of the 32 cells leaves the counts of
    ``(y_{t-3}, .., y_t)``, the window ``t - 1`` without its first period.
    For a sample the ``-``/``+`` means equal those of ``aggregate(panel,
    t - 1)`` exactly, because the integer cell sums are exact.  Needs the
    period ``t - 3`` in ``stats``.
    """
    if not stats.has_interacted:
        raise ValueError(f"window {stats.window_t - 1} needs period {stats.window_t - 3}, "
                         f"which the aggregate at window {stats.window_t} lacks")
    cells = np.zeros(32)
    cells[:16] = stats.summands.counts.reshape(16, 2).sum(axis=1)
    return from_cells(stats.window_t - 1, cells, stats.n, has_interacted=False)
