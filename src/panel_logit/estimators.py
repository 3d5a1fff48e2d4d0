"""Stacked just-identified linear systems and their weighted variances.

Each estimator family stacks eight zero-mean rows into a square system
``y_vec = x_mat @ alpha``:

* families A and B: the four moment rows of ``kernels.ROW_TABLE`` plus the
  same four interacted with the outcome three periods before the window
  (rows 5..8), all at one window;
* family C: the four rows at window ``t`` stacked over the four rows at
  window ``t - 1`` (no interaction).  The latter read ``y_{t-3} .. y_t``,
  so both halves come from the one aggregate at window ``t``.

Within each row, the kernel carrying a unit coefficient moves to the
left-hand side with a sign flip and the remaining three kernels populate
the columns of their coefficient labels.  ``_row_placements`` derives this
placement from ``ROW_TABLE`` so the layout exists in exactly one place.

Removing rows makes the system square: any single row for a 7-parameter
family, or the paired removals (rows 3 and 7, or rows 1 and 5), after which
the one column supported only by the removed rows is dropped as well.

Every row is a function of the five-period window ``(y_{t-3}, .., y_{t+1})``
alone, so a system carries its rows at each of the 32 window cells
(``y_cells``, ``x_cells``) with the cell counts ``c``; ``y_vec`` and
``x_mat`` are their count-weighted means.  Point estimates come from a
pivoted LU solve with a reciprocal-condition guard; the weight matrix
enters only the variance, never the point estimate.  The variance is the
one sandwich

    (1/N) * inv(X' W X),   W = inv(S),   S = V' diag(c) V / N,

with ``V = y_cells - x_cells @ alpha_hat`` the 32 x m residual table, so it
costs the same whatever N is.  The two-step effect step of
``inference.two_step_dtd_tm1`` borders ``X`` and ``V`` with one more row
and goes through the same sandwich.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

from .aggregation import AggregateStats, cell_kernel
from .kernels import ROW_TABLE, alpha_labels

RCOND_TOL = 1e-10
RESIDUAL_RTOL = 1e-10


class EstimationError(Exception):
    """Base class for statistical-degeneracy failures."""


class SingularSystem(EstimationError):
    """The stacked system is numerically singular."""

    def __init__(self, message: str, guards: dict[str, float] | None = None):
        super().__init__(message)
        self.guards = guards or {}


class SingularWeight(EstimationError):
    """The residual second-moment matrix is numerically singular."""


@dataclass(frozen=True)
class Variant:
    """Row-removal scheme making a stacked system square."""

    name: str
    removed_rows: tuple[int, ...]


VARIANT_FULL = Variant("full", ())
VARIANT_MINUS_37 = Variant("minus-3-7", (3, 7))
VARIANT_MINUS_15 = Variant("minus-1-5", (1, 5))


def variant_minus_r(r: int) -> Variant:
    if not 1 <= r <= 8:
        raise ValueError(f"row to remove must be 1..8, got {r}")
    return Variant(f"minus-r:{r}", (r,))


def parse_variant(name: str) -> Variant:
    """Parse a CLI-style variant name."""
    if name == "full":
        return VARIANT_FULL
    if name == "minus-3-7":
        return VARIANT_MINUS_37
    if name == "minus-1-5":
        return VARIANT_MINUS_15
    if name.startswith("minus-r:"):
        return variant_minus_r(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown variant {name!r}")


@dataclass(frozen=True)
class LinearSystem:
    """A square stacked system ready to solve.

    ``row_ids`` are the kept stacked rows (1..8); ``col_labels`` the kept
    transformed-parameter components.  ``guards`` carries the closed-form
    determinant diagnostics available for this family/variant, evaluated on
    the input aggregates.  ``y_cells`` (32 x m) and ``x_cells`` (32 x m x m)
    are the rows at each window cell and ``cells`` their weights, so that
    ``y_vec``/``x_mat`` are the weighted means of the cell rows and
    ``y_cells - x_cells @ alpha`` is the residual table.
    """

    family: str
    variant: Variant
    window_t: int
    n: int
    y_vec: np.ndarray
    x_mat: np.ndarray
    row_ids: tuple[int, ...]
    col_labels: tuple[str, ...]
    guards: dict[str, float]
    cells: np.ndarray
    y_cells: np.ndarray
    x_cells: np.ndarray


def _row_placements(family: str):
    """(kind, selector, y_kernel, [(label, kernel)]) for base rows 1..4."""
    placements = []
    for kind, sel, coeffs in ROW_TABLE[family]:
        unit = coeffs.index("1") + 1
        cols = [(label, j + 1) for j, label in enumerate(coeffs) if label != "1"]
        placements.append((kind, sel, unit, cols))
    return placements


def _dropped_columns(family: str, removed_rows: tuple[int, ...]) -> tuple[str, ...]:
    # a column goes when every stacked row it appears in was removed
    placements = _row_placements(family)
    support: dict[str, set[int]] = {label: set() for label in alpha_labels(family)}
    for base in range(1, 5):
        for label, _ in placements[base - 1][3]:
            support[label].update((base, base + 4))
    removed = set(removed_rows)
    return tuple(label for label, rows in support.items() if rows <= removed)


def _stacked_row(family: str, row_id: int):
    """Bar lookup plan for one stacked row: (back, selector, kind, unit, cols).

    ``back`` is 1 for the rows at window ``t - 1`` (family C rows 5..8), 0
    for rows at window ``t``.
    """
    base = (row_id - 1) % 4 + 1
    kind, sel, unit, cols = _row_placements(family)[base - 1]
    if row_id <= 4:
        return 0, sel, kind, unit, cols
    if family == "C":
        return 1, sel, kind, unit, cols
    return 0, sel + "+", kind, unit, cols  # interact with the outcome at t-3


def _assemble(family: str, variant: Variant, stats: AggregateStats) -> LinearSystem:
    labels = alpha_labels(family)
    dropped = _dropped_columns(family, variant.removed_rows)
    kept_cols = tuple(c for c in labels if c not in dropped)
    kept_rows = tuple(r for r in range(1, 9) if r not in variant.removed_rows)
    if len(kept_rows) != len(kept_cols):
        raise ValueError(f"variant {variant.name!r} leaves a non-square system "
                         f"({len(kept_rows)}x{len(kept_cols)}) for family {family}")
    col_pos = {c: k for k, c in enumerate(kept_cols)}

    m = len(kept_rows)
    y_cells = np.zeros((32, m))
    x_cells = np.zeros((32, m, m))
    for k, row_id in enumerate(kept_rows):
        back, sel, kind, unit, cols = _stacked_row(family, row_id)
        # subtracting from zeros keeps zero kernels at +0.0; negating gives -0.0
        y_cells[:, k] -= cell_kernel(kind, unit, sel, back)
        for label, j in cols:
            if label in col_pos:
                x_cells[:, k, col_pos[label]] = cell_kernel(kind, j, sel, back)
    # for counts every cell sum is an exact integer, so these means equal
    # the kernel means of ``stats.bar`` bitwise
    cells = stats.summands.counts
    total = cells.sum()
    y = cells @ y_cells / total
    x = np.tensordot(cells, x_cells, axes=1) / total

    guards = _guard_values(family, variant, stats)
    return LinearSystem(family=family, variant=variant, window_t=stats.window_t,
                        n=stats.n, y_vec=y, x_mat=x, row_ids=kept_rows,
                        col_labels=kept_cols, guards=guards, cells=cells,
                        y_cells=y_cells, x_cells=x_cells)


def build_system(family: str, stats: AggregateStats, variant: Variant) -> LinearSystem:
    """Stack the eight moment rows of family A or B at one window."""
    if family not in ("A", "B"):
        raise ValueError(f"build_system handles families A and B, got {family!r}")
    if variant.name == "full":
        raise ValueError("families A and B need a row removal to be square")
    return _assemble(family, variant, stats)


def build_system_c(stats: AggregateStats,
                   variant: Variant = VARIANT_FULL) -> LinearSystem:
    """Stack the trend-model rows at windows t and t-1.

    Both come from the aggregate at window ``t``: the rows at ``t - 1`` read
    its cells one period back.
    """
    if variant.name != "full":
        raise ValueError("family C uses the full eight-row system")
    return _assemble("C", variant, stats)


# ---------------------------------------------------------------------------
# closed-form uniqueness diagnostics

def _schur_product(stats: AggregateStats, triples) -> float:
    # each factor is bar(kind, a, sel_a) - bar(kind, b, sel_b) * ratio(kind, c/d);
    # numpy scalars keep zero denominators as inf/nan instead of raising
    total = np.float64(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for term in triples:
            prod = np.float64(1.0)
            for (kind, a, sa, b, sb, c, sc, d, sd) in term:
                ratio = np.float64(stats.bar(kind, c, sc)) / np.float64(stats.bar(kind, d, sd))
                prod = prod * (stats.bar(kind, a, sa) - stats.bar(kind, b, sb) * ratio)
            total = total + prod
    return float(total)


def _guard_values(family: str, variant: Variant, stats: AggregateStats) -> dict[str, float]:
    guards: dict[str, float] = {}
    removed = variant.removed_rows
    if family == "A" and removed in ((3,), (3, 7)):
        guards["corner_product"] = (stats.bar("theta", 3, "++")
                                    * stats.bar("theta", 4, "-+")
                                    * stats.bar("xi", 3, "-+"))
        guards["block_determinant"] = _schur_product(stats, [
            [("theta", 2, "-", 2, "-+", 4, "-", 4, "-+"),
             ("theta", 4, "+", 4, "++", 3, "+", 3, "++"),
             ("xi", 2, "-", 2, "-+", 3, "-", 3, "-+")],
            [("theta", 2, "+", 2, "++", 3, "+", 3, "++"),
             ("theta", 3, "-", 3, "-+", 4, "-", 4, "-+"),
             ("xi", 1, "-", 1, "-+", 3, "-", 3, "-+")],
        ])
        if removed == (3,):
            guards["pivot_bar"] = stats.bar("xi", 1, "++")
    elif family == "B" and removed in ((1,), (1, 5)):
        guards["corner_product"] = (stats.bar("theta", 3, "++")
                                    * stats.bar("xi", 3, "-+")
                                    * stats.bar("xi", 4, "++"))
        guards["block_determinant"] = _schur_product(stats, [
            [("theta", 1, "+", 1, "++", 3, "+", 3, "++"),
             ("xi", 2, "-", 2, "-+", 3, "-", 3, "-+"),
             ("xi", 3, "+", 3, "++", 4, "+", 4, "++")],
            [("theta", 2, "+", 2, "++", 3, "+", 3, "++"),
             ("xi", 4, "-", 4, "-+", 3, "-", 3, "-+"),
             ("xi", 2, "+", 2, "++", 4, "+", 4, "++")],
        ])
        if removed == (1,):
            guards["pivot_bar"] = stats.bar("theta", 1, "-+")
    elif family == "C":
        def prev(kind, j, sel):  # the mean at window t - 1
            return stats.bar(kind, j, sel, back=1)

        guards["corner_product"] = (prev("theta", 3, "+") * prev("theta", 4, "-")
                                    * prev("xi", 3, "-") * prev("xi", 4, "+"))
        with np.errstate(divide="ignore", invalid="ignore"):
            def diff(kind, j, sel, pivot_j, pivot_sel):
                r = (np.float64(stats.bar(kind, pivot_j, pivot_sel))
                     / np.float64(prev(kind, pivot_j, pivot_sel)))
                return stats.bar(kind, j, sel) - prev(kind, j, sel) * r

            guards["block_determinant"] = float(
                diff("theta", 1, "+", 3, "+") * diff("theta", 3, "-", 4, "-")
                * diff("xi", 1, "-", 3, "-") * diff("xi", 3, "+", 4, "+")
                - diff("theta", 2, "+", 3, "+") * diff("theta", 2, "-", 4, "-")
                * diff("xi", 2, "-", 3, "-") * diff("xi", 2, "+", 4, "+")
            )
    return guards


def failed_guards(guards: dict[str, float], tol: float = 1e-10) -> list[str]:
    """Names of guard diagnostics that are (numerically) zero."""
    return [k for k, v in guards.items() if not np.isfinite(v) or abs(v) < tol]


# ---------------------------------------------------------------------------
# solve and variance


def lu_factor_quiet(mat: np.ndarray):
    """LU factorization without the exactly-singular warning; the condition
    guard downstream turns that case into a typed error."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return lu_factor(mat)


def _reciprocal_condition(mat: np.ndarray, lu) -> float:
    anorm = np.linalg.norm(mat, 1)
    if anorm == 0.0:
        return 0.0
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0:
        return 0.0
    return float(rcond)


def solve(system: LinearSystem) -> np.ndarray:
    """Solve the stacked system by pivoted LU with a condition guard.

    Raises ``SingularSystem`` when the reciprocal condition estimate falls
    below ``RCOND_TOL``, reporting whichever closed-form determinant
    diagnostics are available for the variant.
    """
    x, y = system.x_mat, system.y_vec
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SingularSystem("system contains non-finite entries", system.guards)
    try:
        lu, piv = lu_factor_quiet(x)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise SingularSystem(f"factorization failed: {exc}", system.guards) from exc
    rcond = _reciprocal_condition(x, lu)
    if rcond < RCOND_TOL:
        raise SingularSystem(_singular_message(system, rcond), system.guards)
    theta = lu_solve((lu, piv), y)
    # one refinement step keeps the residual at rounding level even when the
    # condition number approaches the guard threshold
    theta += lu_solve((lu, piv), y - x @ theta)
    resid = np.linalg.norm(x @ theta - y)
    if resid > RESIDUAL_RTOL * np.linalg.norm(y) + 1e-300:
        raise SingularSystem(
            f"solve residual {resid:.3e} exceeds tolerance (rcond={rcond:.3e})",
            system.guards)
    return theta


def _singular_message(system: LinearSystem, rcond: float) -> str:
    msg = (f"{system.family}[{system.variant.name}] system at window "
           f"{system.window_t} is numerically singular (rcond={rcond:.3e})")
    failed = failed_guards(system.guards)
    if failed:
        msg += "; zero determinant guards: " + ", ".join(failed)
    elif system.guards:
        vals = ", ".join(f"{k}={v:.3e}" for k, v in system.guards.items())
        msg += f"; determinant guards: {vals}"
    return msg


def _checked_solve(mat: np.ndarray, rhs: np.ndarray, error, what: str) -> np.ndarray:
    """``inv(mat) @ rhs`` by pivoted LU.

    Raises ``error(message)`` when ``mat`` cannot be factored or its
    reciprocal condition estimate falls below ``RCOND_TOL``; the message
    names ``what`` and reports the estimate.
    """
    try:
        lu = lu_factor_quiet(mat)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise error(f"{what} not invertible: {exc}") from exc
    rcond = _reciprocal_condition(mat, lu[0])
    if rcond < RCOND_TOL:
        raise error(f"{what} is numerically singular (rcond={rcond:.3e})")
    return lu_solve(lu, rhs)


def _sandwich(system: LinearSystem, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``inv(X' W X) / N`` symmetrized, ``W = inv(V' diag(c) V / N)``.

    ``v`` holds the residuals of each of the 32 window cells (one column
    per row of ``x``) and ``c`` the cell counts of ``system``'s sample.
    """
    n = system.n
    if n == 0:
        raise ValueError("variance needs the cell counts of a sample aggregate")
    m = x.shape[0]
    s_mat = (v.T * system.cells) @ v / n
    w = _checked_solve(s_mat, np.eye(m), SingularWeight, "residual moment matrix")
    design_error = partial(SingularSystem, guards=system.guards)
    vcov = _checked_solve(x.T @ w @ x, np.eye(m), design_error, "weighted design") / n
    return (vcov + vcov.T) / 2.0


def variance(system: LinearSystem, alpha_hat: np.ndarray) -> np.ndarray:
    """Asymptotic variance of the solved parameters of a sample system.

    Raises ``SingularWeight`` when the residual second-moment matrix is
    numerically singular and ``SingularSystem`` when the weighted design is.
    """
    return _sandwich(system, system.y_cells - system.x_cells @ alpha_hat, system.x_mat)


@dataclass(frozen=True)
class TransformedEstimate:
    """Solved transformed parameters with their variance matrix."""

    family: str
    variant: Variant
    window_t: int
    n: int
    col_labels: tuple[str, ...]
    alpha: np.ndarray
    vcov: np.ndarray

    def index(self, label: str) -> int:
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise KeyError(f"component {label!r} not estimated by "
                           f"{self.family}[{self.variant.name}]") from None

    def has(self, label: str) -> bool:
        return label in self.col_labels

    def value(self, label: str) -> float:
        return float(self.alpha[self.index(label)])

    def se(self, label: str) -> float:
        k = self.index(label)
        return float(np.sqrt(max(self.vcov[k, k], 0.0)))

    def cov_block(self, labels: tuple[str, ...]) -> np.ndarray:
        idx = [self.index(c) for c in labels]
        return self.vcov[np.ix_(idx, idx)]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "variant": self.variant.name,
            "window_t": self.window_t,
            "n": self.n,
            "alpha": {c: self.value(c) for c in self.col_labels},
            "se": {c: self.se(c) for c in self.col_labels},
            "vcov": {"labels": list(self.col_labels),
                     "rows": [[float(v) for v in row] for row in self.vcov]},
        }
