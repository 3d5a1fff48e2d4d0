"""Sample averages of the window kernels, on the panel's distinct histories.

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
individuals share each outcome history.  ``aggregate`` collapses the panel
to that table in one O(N) pass: each row is packed into an ``int64`` code
over all stored periods (the first stored period in the highest bit) and
one count weighted by the row frequencies gives the number of individuals
with each code.  ``from_histories`` builds the aggregate at any window from
such a table, so everything after the collapse runs on at most 2**T history
rows and costs O(2**T) whatever N is.  Because the table spans all stored
periods, the aggregates of one panel at any two windows share the same rows
in the same order, which the trend-model variance and the two-step dagger
block need.

The builder takes float weights: the integer counts of a sample, or the
exact history probabilities of the population (``oracle.population_aggregates``,
``n = 0``: no sample).  Means are cell sums divided by the total weight.  For
counts every sum is an integer below 2**53 and exact in float64, so
aggregation over any sharding of individuals merges without rounding error.

When the period before the window start (``t - 3``) is not stored in the
panel, only the ``-``/``+`` selectors can be formed.  Such partial
aggregates (``has_interacted == False``) are all the trend-model system and
the second-stage effect-step estimator need, which keeps five stored periods
sufficient for every estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _theta_components, _xi_components, all_windows
from .panel import PanelData

SELECTORS = ("-", "+", "-+", "++")
_SEL_INDEX = {s: k for k, s in enumerate(SELECTORS)}
# a history code of T periods and the table size 2**T both fit an int64
MAX_PERIODS = 62

# kernel values and selector weights of the 32 windows, in window-code order
# (code = 16 y_{t-3} + 8 y_{t-2} + 4 y_{t-1} + 2 y_t + y_{t+1})
_Y3, _Y2, _Y1, _Y0, _YP = np.array(all_windows(), dtype=np.int64).T
_THETA_CELLS = np.stack(_theta_components(_Y1, _Y0, _YP), axis=1)
_XI_CELLS = np.stack(_xi_components(_Y1, _Y0, _YP), axis=1)
_SELECTOR_CELLS = np.stack((1 - _Y2, _Y2, (1 - _Y2) * _Y3, _Y2 * _Y3), axis=1)


@dataclass(frozen=True)
class KernelSummands:
    """Kernel values of each distinct outcome history at one window.

    Rows are the histories over the stored periods ``periods = (t0,
    t_last)``, in ascending order of their ``codes``.  In a sample they are
    the histories at least one individual has and ``counts`` the numbers of
    individuals with each; in the population they are all histories and
    ``counts`` their probabilities.
    ``theta``/``xi`` are (rows, 4) int8 arrays; ``y_tm2`` is the outcome two
    periods before the window index and ``y_tm3`` three periods before
    (``None`` for partial aggregates).
    """

    codes: np.ndarray
    counts: np.ndarray
    periods: tuple[int, int]
    theta: np.ndarray
    xi: np.ndarray
    y_tm2: np.ndarray
    y_tm3: np.ndarray | None


@dataclass(frozen=True)
class AggregateStats:
    """Kernel averages at one window.

    ``theta_bar``/``xi_bar`` are (4, 4) arrays indexed by (kernel - 1,
    selector) with selectors ordered as in ``SELECTORS``.  Interacted
    columns are NaN when ``has_interacted`` is false.  ``summands`` holds
    the history rows behind the means; ``n`` is the number of individuals,
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


def _histories(panel: PanelData) -> tuple[np.ndarray, np.ndarray]:
    """Codes of the panel's distinct outcome histories, ascending, and the
    number of individuals with each (positive)."""
    n_periods = panel.n_periods
    if n_periods > MAX_PERIODS:
        raise ValueError(f"panel stores {n_periods} periods; outcome histories "
                         f"are packed into int64 codes of at most {MAX_PERIODS} periods")
    code = np.zeros(panel.n_rows, dtype=np.int64)
    for k in range(n_periods):
        code <<= 1
        code |= panel.y[:, k]
    # float64 totals are exact integers: PanelData keeps N below 2**53
    if (1 << n_periods) <= panel.n_rows:
        codes = np.arange(1 << n_periods)
        freq = np.bincount(code, weights=panel.counts, minlength=1 << n_periods)
    else:
        # a dense table of 2**T cells would outgrow the panel itself
        codes, inverse = np.unique(code, return_inverse=True)
        freq = np.bincount(inverse, weights=panel.counts, minlength=len(codes))
    seen = freq > 0
    return codes[seen], freq[seen].astype(np.int64)


def from_histories(t: int, periods: tuple[int, int], codes: np.ndarray,
                   weights: np.ndarray, n: int) -> AggregateStats:
    """Kernel means and history rows at window ``t`` of a weighted history table.

    ``codes`` are histories over the stored ``periods``, the first period in
    the highest bit; ``weights`` are their counts in a sample of ``n``
    individuals, or their probabilities in the population (``n = 0``).
    Requires periods ``t-2 .. t+1``; the interacted selectors also need
    ``t-3``.
    """
    for s in (t - 2, t - 1, t, t + 1):
        if not periods[0] <= s <= periods[1]:
            raise ValueError(f"window {t} needs period {s}, panel stores "
                             f"{periods[0]}..{periods[1]}")
    has_interacted = t - 3 >= periods[0]
    cell = (codes >> (periods[1] - t - 1)) & (31 if has_interacted else 15)
    cells = np.bincount(cell, weights=weights, minlength=32)
    weighted_sel = _SELECTOR_CELLS * cells[:, None]
    total = cells.sum()
    theta_bar = _THETA_CELLS.T @ weighted_sel / total
    xi_bar = _XI_CELLS.T @ weighted_sel / total
    if not has_interacted:
        theta_bar[:, 2:] = np.nan
        xi_bar[:, 2:] = np.nan

    summands = KernelSummands(
        codes=codes, counts=weights, periods=periods,
        theta=_THETA_CELLS[cell].astype(np.int8), xi=_XI_CELLS[cell].astype(np.int8),
        y_tm2=_Y2[cell].astype(np.int8),
        y_tm3=_Y3[cell].astype(np.int8) if has_interacted else None)
    return AggregateStats(window_t=t, n=n, theta_bar=theta_bar, xi_bar=xi_bar,
                          has_interacted=has_interacted, summands=summands)


def aggregate(panel: PanelData, t: int) -> AggregateStats:
    """Average the window kernels of ``panel`` at window index ``t``.

    Requires stored periods ``t-2 .. t+1``; if ``t-3`` is stored as well the
    interacted selectors are included, otherwise a partial aggregate is
    returned.  Each row counts as ``panel.counts`` individuals.  The
    result keeps the panel's distinct histories and their counts, from
    which the variances are formed.  Panels of more than ``MAX_PERIODS``
    stored periods are refused.
    """
    if panel.n == 0:
        raise ValueError("cannot aggregate an empty panel")
    codes, counts = _histories(panel)
    return from_histories(t, (panel.t0, panel.t_last), codes, counts, panel.n)


def merge_stats(parts: list[AggregateStats]) -> AggregateStats:
    """Combine shard aggregates into the single-pass result, exactly.

    Shards must cover disjoint individuals of panels storing the same
    periods, aggregated at the same window.  Their history counts add, so
    the merge is independent of the sharding.
    """
    if not parts:
        raise ValueError("nothing to merge")
    if any(p.n == 0 for p in parts):
        raise ValueError("only sample aggregates with history counts merge exactly")
    first = parts[0]
    for p in parts[1:]:
        if p.window_t != first.window_t or p.summands.periods != first.summands.periods:
            raise ValueError("shards disagree on window or stored periods")
    codes, inverse = np.unique(np.concatenate([p.summands.codes for p in parts]),
                               return_inverse=True)
    counts = np.bincount(inverse, weights=np.concatenate([p.summands.counts for p in parts]))
    return from_histories(first.window_t, first.summands.periods, codes,
                          counts.astype(np.int64), sum(p.n for p in parts))


def shard_aggregate(panel: PanelData, t: int, n_shards: int) -> AggregateStats:
    """Aggregate by splitting individuals into shards and merging.

    Equals ``aggregate(panel, t)`` exactly, for any shard count; exposed so
    the schedule-independence of the fold is directly exercisable.
    """
    bounds = np.linspace(0, panel.n_rows, n_shards + 1).astype(int)
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            shard = PanelData(y=panel.y[lo:hi], ids=panel.ids[lo:hi], t0=panel.t0,
                              counts=panel.counts[lo:hi])
            parts.append(aggregate(shard, t))
    return merge_stats(parts)

