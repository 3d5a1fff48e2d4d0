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
with each code.  Everything after runs on at most 2**T history rows, so it
costs O(2**T) whatever N is.  Because the table spans all stored periods,
the aggregates of one panel at any two windows share the same rows in the
same order, which the trend-model variance and the two-step dagger block
need.  Kernel sums are exact ``int64`` counts, so aggregation over any
sharding of individuals merges without rounding error; means are formed by
a single division at the end.

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
    t_last)`` that at least one individual has, in ascending order of their
    ``codes``; ``counts`` are the numbers of individuals with each.
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
    columns are NaN when ``has_interacted`` is false.  ``theta_sums``/
    ``xi_sums`` hold the exact integer sums backing the means, and
    ``summands`` the history rows behind them (both absent for
    population-moment aggregates).
    """

    window_t: int
    n: int
    theta_bar: np.ndarray
    xi_bar: np.ndarray
    has_interacted: bool = True
    summands: KernelSummands | None = None
    theta_sums: np.ndarray | None = None
    xi_sums: np.ndarray | None = None

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


def _from_histories(t: int, periods: tuple[int, int], codes: np.ndarray,
                    counts: np.ndarray) -> AggregateStats:
    """Kernel sums and history rows at window ``t`` of a history table."""
    has_interacted = t - 3 >= periods[0]
    cell = (codes >> (periods[1] - t - 1)) & (31 if has_interacted else 15)
    cells = np.bincount(cell, weights=counts, minlength=32).astype(np.int64)
    weighted_sel = _SELECTOR_CELLS * cells[:, None]
    theta_sums = _THETA_CELLS.T @ weighted_sel
    xi_sums = _XI_CELLS.T @ weighted_sel

    n = int(counts.sum())
    theta_bar = theta_sums / n
    xi_bar = xi_sums / n
    if not has_interacted:
        theta_bar[:, 2:] = np.nan
        xi_bar[:, 2:] = np.nan

    summands = KernelSummands(
        codes=codes, counts=counts, periods=periods,
        theta=_THETA_CELLS[cell].astype(np.int8), xi=_XI_CELLS[cell].astype(np.int8),
        y_tm2=_Y2[cell].astype(np.int8),
        y_tm3=_Y3[cell].astype(np.int8) if has_interacted else None)
    return AggregateStats(window_t=t, n=n, theta_bar=theta_bar, xi_bar=xi_bar,
                          has_interacted=has_interacted, summands=summands,
                          theta_sums=theta_sums, xi_sums=xi_sums)


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
    for s in (t - 2, t - 1, t, t + 1):
        if not panel.has_period(s):
            raise ValueError(f"window {t} needs period {s}, panel stores "
                             f"{panel.t0}..{panel.t_last}")
    codes, counts = _histories(panel)
    return _from_histories(t, (panel.t0, panel.t_last), codes, counts)


def merge_stats(parts: list[AggregateStats]) -> AggregateStats:
    """Combine shard aggregates into the single-pass result, exactly.

    Shards must cover disjoint individuals of panels storing the same
    periods, aggregated at the same window.  Their history counts add, so
    the merge is independent of the sharding.
    """
    if not parts:
        raise ValueError("nothing to merge")
    if any(p.summands is None for p in parts):
        raise ValueError("shard lacks history counts; cannot merge exactly")
    first = parts[0]
    for p in parts[1:]:
        if p.window_t != first.window_t or p.summands.periods != first.summands.periods:
            raise ValueError("shards disagree on window or stored periods")
    codes, inverse = np.unique(np.concatenate([p.summands.codes for p in parts]),
                               return_inverse=True)
    counts = np.bincount(inverse, weights=np.concatenate([p.summands.counts for p in parts]))
    return _from_histories(first.window_t, first.summands.periods, codes,
                           counts.astype(np.int64))


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


def from_expected_bars(window_t: int, theta_bar: np.ndarray,
                       xi_bar: np.ndarray) -> AggregateStats:
    """Wrap exact population moments (no sample behind them) as aggregates."""
    return AggregateStats(window_t=window_t, n=0,
                          theta_bar=np.asarray(theta_bar, dtype=np.float64),
                          xi_bar=np.asarray(xi_bar, dtype=np.float64),
                          has_interacted=True, summands=None,
                          theta_sums=None, xi_sums=None)
