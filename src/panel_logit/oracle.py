"""Exact, estimator-independent verification layer.

All checks here are finite enumerations over one law: the exact
probabilities of the 32 outcome patterns of a window ``t-3 .. t+1`` at each
value of a fixed-effect grid (``model.chain_law``, the chain carried from
period 1).  Conditioned on the pre-window outcomes, the law gives every
moment row's conditional mean at once; mixed across the grid, it is the
population's 32-cell window table, weighted by exact probabilities instead
of counts, which goes through the same aggregation builder and the same
variance sandwich as a sample's, with total weight N equal to 1.  Ranks
are numerical ranks of the moment rows' values over the 32 window cells.
Nothing is simulated, so pass/fail assertions carry no Monte Carlo error.

The fixed-effect heterogeneity enters through finite grids because the
conditional moment identities hold pointwise in the fixed effect; any grid
mixture therefore inherits them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .aggregation import AggregateStats, from_cells
from .estimators import (LinearSystem, TransformedEstimate, build_system,
                         build_system_c, kept_components, solve)
from .inference import recover_original
from .kernels import WINDOW_COLUMNS, alpha_from_spec, alpha_labels, row_cells
from .model import ModelSpec, TimeDummiesSpec, TimeTrendSpec, chain_law, true_values

# a check passes when its worst violation is at most its tolerance
_IDENTITY_TOL = 1e-12
_ZERO_MEAN_TOL = 1e-12
_VANISH_TOL = 0.0
_POPULATION_TOL = 1e-8
_RANK_RTOL = 1e-10   # rank counts singular values above this share of the largest
_IDENTITY_SEED = 20240801


# ---------------------------------------------------------------------------
# the exact window law and the population moments


def _window_law(spec: ModelSpec, eta: Sequence[float], t: int) -> np.ndarray:
    """Law of the 32 window-``t`` cells at each fixed effect, one row per
    ``eta``, cells in window-code order."""
    if t < 4:
        raise ValueError(f"window {t} needs period {t - 3}, the chain starts at period 1")
    return chain_law(spec, np.asarray(eta, dtype=np.float64), 5, t - 3)


def population_aggregates(spec: ModelSpec, t: int, eta_nodes: Sequence[float],
                          eta_weights: Sequence[float]) -> AggregateStats:
    """Exact expected kernel averages at window ``t``.

    The chain runs from period 1 but is enumerated over the window periods
    ``t-3 .. t+1`` only, so the law of the window cells, mixed over the
    fixed-effect grid, holds 32 cells per grid node at any ``t``.  The
    cells, summing to 1, go through the builder a sample's counts go
    through.
    """
    law = _window_law(spec, eta_nodes, t)
    weights = np.asarray(eta_weights, dtype=np.float64)
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("eta grid weights must sum to 1")
    return from_cells(t, weights @ law)


def population_system(family: str, spec: ModelSpec, t: int,
                      eta_nodes: Sequence[float], eta_weights: Sequence[float],
                      variant: str) -> LinearSystem:
    """The stacked system of ``family`` and the variant named ``variant``,
    built from exact population moments at window ``t``."""
    stats = population_aggregates(spec, t, eta_nodes, eta_weights)
    if family != "C":
        return build_system(family, stats, variant)
    return build_system_c(stats, variant)


# ---------------------------------------------------------------------------
# rank analysis of the moment-function sets


def _row_values(family: str, alpha: np.ndarray) -> np.ndarray:
    """``row_cells``' eight rows at ``alpha``, 32 cells x 8."""
    y, x = row_cells(family)
    return x @ alpha - y


def _value_matrix(family: str, spec: ModelSpec, t: int,
                  rows: Sequence[int]) -> np.ndarray:
    """Moment rows at the true parameters, one column per window-``t``
    cell."""
    alpha = alpha_from_spec(family, spec, t)
    if family == "C":
        # rows 5..8 are at window t - 1: refuse a step that changes there
        alpha_from_spec(family, spec, t - 1)
    return _row_values(family, alpha)[:, np.array(rows) - 1].T


def moment_rank(family: str, spec: ModelSpec, t: int,
                rows: Sequence[int] = range(1, 9)) -> int:
    """Numerical rank of the moment functions as vectors over all windows."""
    svals = np.linalg.svd(_value_matrix(family, spec, t, rows), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > _RANK_RTOL * svals[0]))


# ---------------------------------------------------------------------------
# check suite (drives the `verify` command and the acceptance tests)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_violation: float
    tolerance: float
    detail: str = ""


def spec_with_steps(gamma: float, dtd_t: float, dtd_tp1: float,
                    t: int = 5) -> TimeDummiesSpec:
    """Dummies model whose effect steps at window ``t`` are the given values."""
    if t < 4:
        raise ValueError("window needs at least three preceding periods")
    td = [0.0, 0.1, -0.05]
    while len(td) < t - 1:           # generic steps through period t-1
        td.append(td[-1] + 0.15)
    td.append(td[-1] + dtd_t)        # period t
    td.append(td[-1] + dtd_tp1)      # period t + 1
    return TimeDummiesSpec(gamma=gamma, td=tuple(td))


def check_identities(n_draws: int = 50) -> CheckResult:
    """Rows 1-8 of ``row_cells``, the tables the estimators solve, equal
    their rescaled conditional forms at every window cell.

    Rows 1-4 are ``kernels.scaled_hbar_row`` on the window columns; rows
    5-8 are them times ``y_{t-3}`` (A, B), or at the window ``t - 1`` cell
    ``code >> 1`` (C).
    """
    rng = np.random.default_rng(_IDENTITY_SEED)
    worst = 0.0
    for _ in range(n_draws):
        gamma = rng.uniform(-2.0, 2.0)
        s_t, s_tp1 = rng.uniform(-1.0, 1.0, size=2)
        delta = math.exp(gamma) - 1.0
        phi_t, phi_tp1 = math.exp(s_t), math.exp(s_tp1)
        cases = [("A", phi_t, phi_tp1), ("B", phi_t, phi_tp1), ("C", phi_t, phi_t)]
        for family, p2, p3 in cases:
            scaled = np.column_stack([
                kernels.scaled_hbar_row(family, which, WINDOW_COLUMNS, delta, p2, p3)
                for which in range(1, 5)])
            back = (scaled[np.arange(32) >> 1] if family == "C"
                    else scaled * WINDOW_COLUMNS[0][:, None])
            scaled = np.hstack((scaled, back))
            expansion = _row_values(family, kernels.alpha_values(family, delta, p2, p3))
            rel = abs(expansion - scaled) / np.maximum(abs(expansion), abs(scaled)).clip(1.0)
            worst = max(worst, float(rel.max()))
    return CheckResult("kernel-expansion identities", worst <= _IDENTITY_TOL, worst,
                       _IDENTITY_TOL,
                       f"{n_draws} draws x 3 families x rows 1-8 x 32 cells")


def _moment_tables(spec: ModelSpec, t: int,
                   families: Sequence[str]) -> list[tuple[np.ndarray, int]]:
    """Both conditional forms and the families' eight moment rows at the
    true parameters of ``spec``, as 32-cell tables (one column each).

    Each table comes with the number of pre-window states it has zero mean
    given: 4 for ``(y_{t-3}, y_{t-2})``, or 2 for ``y_{t-3}`` alone, which
    is all that family C's rows at window ``t - 1`` condition on.
    """
    phi_t, phi_tp1 = spec.phi_pair(t)
    forms = np.column_stack([form(WINDOW_COLUMNS, spec.delta, phi_t, phi_tp1)
                             for form in (kernels.hbar_u, kernels.hbar_upsilon)])
    tables = [(forms, 4)]
    for family in families:
        rows = _value_matrix(family, spec, t, range(1, 9)).T
        if family == "C":
            tables += [(rows[:, :4], 4), (rows[:, 4:], 2)]
        else:
            tables.append((rows, 4))
    return tables


def _conditional_means(law: np.ndarray, values: np.ndarray, states: int) -> np.ndarray:
    """Means of the columns of a 32-cell table given the fixed effect and
    the first ``log2(states)`` window outcomes; (eta, state, column).

    ``law`` is ``_window_law``'s: a cell code's high bits are the state.
    """
    cond = law.reshape(len(law), states, -1)
    cond = cond / cond.sum(axis=2, keepdims=True)
    return np.einsum("esc,sck->esk", cond, values.reshape(states, -1, values.shape[1]))


_ZERO_MEAN_ETA = (-2.0, -1.0, 0.0, 1.0, 2.0)


def check_zero_means() -> CheckResult:
    """All moment functions have zero conditional mean at true parameters."""
    dummies = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
    trend = TimeTrendSpec(gamma=1.0, phi_coef=0.3)
    worst = 0.0
    cases: list[tuple[ModelSpec, int, tuple[str, ...]]] = [
        (dummies, 5, ("A", "B")),
        (dummies, 7, ("A", "B")),
        (trend, 6, ("A", "B", "C")),
    ]
    for spec, t, families in cases:
        law = _window_law(spec, _ZERO_MEAN_ETA, t)
        for values, states in _moment_tables(spec, t, families):
            worst = max(worst, float(np.abs(_conditional_means(law, values, states)).max()))
    return CheckResult("zero conditional means", worst <= _ZERO_MEAN_TOL, worst,
                       _ZERO_MEAN_TOL,
                       f"{len(cases)} cases x {len(_ZERO_MEAN_ETA)} eta x 4 pre-window "
                       "states (2 for C rows 5-8): rows 1-8 of A, B and C, both "
                       "conditional forms")


def check_vanishing_rows() -> CheckResult:
    """With the pre-window outcome at 0, rows 2 and 3 of family A vanish."""
    spec = spec_with_steps(0.7, 0.25, -0.4)
    values = _value_matrix("A", spec, 5, (2, 3))[:, WINDOW_COLUMNS[1] == 0]  # y_{t-2} = 0
    worst = float(np.abs(values).max())
    return CheckResult("pre-window-zero rows vanish", worst <= _VANISH_TOL, worst, _VANISH_TOL)


def check_three_period_rank() -> CheckResult:
    """The two surviving rows cannot identify three parameters.

    Restricted to histories with the pre-window outcomes at 0, the value
    matrix of rows A1 and A4 over the eight continuations has rank at most
    2, one short of the three unknown parameters.
    """
    spec = spec_with_steps(0.7, 0.25, -0.4)
    y3, y2 = WINDOW_COLUMNS[:2]
    values = _value_matrix("A", spec, 5, (1, 4))[:, (y3 == 0) & (y2 == 0)]
    rank = np.linalg.matrix_rank(values, tol=1e-10)
    return CheckResult("three-period underidentification", rank <= 2 < 3,
                       float(rank), 2.0, f"rank {rank} of 2 rows vs 3 parameters")


def check_ranks() -> list[CheckResult]:
    """Full rank at generic parameters; rank collapse at the stated loci."""
    generic = spec_with_steps(1.0, 0.2, -0.1)
    locus = spec_with_steps(0.0, 0.2, 0.0)  # state dependence and next step both zero
    rows_37 = kept_components("A", "minus-3-7")[1]
    rows_15 = kept_components("B", "minus-1-5")[1]
    # (name, family, rows, spec, full rank, whether the rank must drop below it)
    cases = (
        ("family A full set", "A", range(1, 9), generic, 8, False),
        ("family A minus-3-7", "A", rows_37, generic, 6, False),
        ("family A minus-3-7", "A", rows_37, locus, 6, True),
        ("family B minus-1-5", "B", rows_15, generic, 6, False),
        ("family B minus-1-5", "B", rows_15, locus, 6, True),
        ("family C", "C", range(1, 9), TimeTrendSpec(gamma=1.0, phi_coef=0.3), 8, False),
        ("family C", "C", range(1, 9), TimeTrendSpec(gamma=0.0, phi_coef=0.0), 8, True),
    )
    out = []
    for name, family, rows, spec, full, drop in cases:
        r = moment_rank(family, spec, 5, rows)
        if drop:
            out.append(CheckResult(f"{name} rank (degenerate locus)", r < full, float(r),
                                   float(full), f"rank must drop below {full}"))
        else:
            out.append(CheckResult(f"{name} rank (generic)", r == full, float(r), float(full)))
    return out + [check_three_period_rank()]


_AB_GRID = ((1.0, 0.2, -0.1), (-0.5, 0.4, 0.3), (0.3, -0.6, 0.5))
_C_GRID = ((1.0, 0.3), (-0.7, -0.2), (0.4, 0.1))
_ETA_GRID = ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))


def population_estimate(family: str, spec: ModelSpec, t: int,
                        variant: str) -> TransformedEstimate:
    """Solve a population system on the check grid, for its point value.

    ``n`` is 0: the population has no sample.  ``vcov`` is zero: recovery
    is checked on every variant, and the sandwich refuses some of them
    (``variance`` squares the condition of ``X``).  Where it is defined,
    ``variance(system, alpha)`` is the asymptotic variance per individual,
    since the population's total cell weight N is 1.
    """
    system = population_system(family, spec, t, _ETA_GRID[0], _ETA_GRID[1], variant)
    alpha = solve(system)
    return TransformedEstimate(family=family, variant=system.variant, window_t=t,
                               n=0, col_labels=system.col_labels, alpha=alpha,
                               vcov=np.zeros((len(alpha), len(alpha))))


def _population_gap(family: str, spec: ModelSpec, variant: str) -> float:
    """Largest error of a population estimate at window 5: of the kept
    components of alpha, and of the original parameters recovered from
    them against ``true_values``."""
    est = population_estimate(family, spec, 5, variant)
    truth = dict(zip(alpha_labels(family), alpha_from_spec(family, spec, 5)))
    recovered = recover_original(est).params()
    gaps = [v - truth[c] for c, v in zip(est.col_labels, est.alpha)]
    gaps += [recovered[name].value - value for name, value
             in true_values(spec, family, 5).items()]
    return float(np.max(np.abs(gaps)))


def check_population() -> list[CheckResult]:
    """Population systems return the true parameters for every variant."""
    variants = [f"minus-r:{r}" for r in range(1, 9)] + ["minus-3-7", "minus-1-5"]
    worst_ab = max(_population_gap(family, spec_with_steps(*point), variant)
                   for point in _AB_GRID for family in ("A", "B") for variant in variants)
    worst_c = max(_population_gap("C", TimeTrendSpec(gamma=gamma, phi_coef=phi_coef), "full")
                  for gamma, phi_coef in _C_GRID)
    tol = _POPULATION_TOL
    return [CheckResult("population recovery, families A and B", worst_ab <= tol,
                        worst_ab, tol,
                        f"{len(_AB_GRID)} parameter points x {len(variants)} variants"),
            CheckResult("population recovery, family C", worst_c <= tol, worst_c, tol,
                        f"{len(_C_GRID)} parameter points")]


_LEVELS = {
    "identities": lambda: [check_identities(), check_vanishing_rows()],
    "moments": lambda: [check_zero_means()],
    "ranks": check_ranks,
    "population": check_population,
}
CHECK_LEVELS = tuple(_LEVELS)


def run_checks(levels: Sequence[str] | None = None) -> list[CheckResult]:
    """Run the requested check levels; default runs everything."""
    levels = tuple(levels) if levels else CHECK_LEVELS
    unknown = [lv for lv in levels if lv not in CHECK_LEVELS]
    if unknown:
        raise ValueError(f"unknown verify levels {unknown}; choose from {CHECK_LEVELS}")
    return [result for lv in levels for result in _LEVELS[lv]()]


def format_report(results: Sequence[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  max violation {r.max_violation:.3e}"
                     f"  (tol {r.tolerance:.3e})" + (f"  {r.detail}" if r.detail else ""))
    return "\n".join(lines)
