"""Stacked just-identified linear systems and their weighted variances.

Every moment row is a function of the five-period window ``(y_{t-3}, ..,
y_{t+1})`` alone, so each family's eight stacked rows are one constant
table over the 32 window cells, ``kernels.row_cells(family)``, which
also states the stacked layout.

A variant is a name, read by ``parse_variant`` alone and kept canonical.
It removes rows, and a column stays exactly when some kept row reads it.
Any single row removal makes a 7-parameter family square, as do the
paired removals (rows 3 and 7, or rows 1 and 5, each dropping the one
column only they read); family C keeps all eight rows.  A system carries
its kept rows at each cell (``y_cells``, ``x_cells``) with the cell
weights ``c``; ``y_vec`` and ``x_mat`` are their weighted means.

Every matrix here has at most nine rows, and numpy inverts it with one
guard, ``_checked_inverse``, which refuses it unless its exact 1-norm
reciprocal condition reaches ``RCOND_TOL``.  Point estimates come from
numpy's LU solve behind that guard; the weight matrix enters only the
variance, never the point estimate.  The variance is the one sandwich

    (1/N) * inv(X' W X),   W = inv(S),   S = V' diag(c) V / N,

with ``V = y_cells - x_cells @ alpha_hat`` the 32 x m residual table and
``N`` the total cell weight, so it costs the same whatever N is.  For a
sample's counts N is the number of individuals; for the population's
exact cell probabilities N is 1, and the sandwich is the asymptotic
variance per individual.  The two-step effect step of
``inference.two_step_dtd_tm1`` borders ``X`` and ``V`` with one more row
and goes through the same sandwich.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import AggregateStats
from .kernels import alpha_labels, row_cells
from .panel import _ascii_int

RCOND_TOL = 1e-10
RESIDUAL_RTOL = 1e-10
GUARD_TOL = 1e-10   # a determinant guard below this in magnitude counts as zero


class EstimationError(Exception):
    """Base class for statistical-degeneracy failures; ``status`` names the
    failure in Monte Carlo records."""
    status = "estimation_error"


class SingularSystem(EstimationError):
    """The stacked system is numerically singular."""
    status = "singular_system"

    def __init__(self, message: str, guards: dict[str, float] | None = None):
        super().__init__(message)
        self.guards = guards or {}


class SingularWeight(EstimationError):
    """The residual second-moment matrix is numerically singular."""
    status = "singular_weight"


def parse_variant(name: str) -> tuple[str, tuple[int, ...]]:
    """The canonical name and removed rows of ``full``, ``minus-3-7``,
    ``minus-1-5`` or ``minus-r:<k>``, k in 1..8 in ASCII digits."""
    paired = {"full": (), "minus-3-7": (3, 7), "minus-1-5": (1, 5)}
    if name in paired:
        return name, paired[name]
    row = name.removeprefix("minus-r:")
    if row == name or not (row.isascii() and row.isdecimal()):
        raise ValueError(f"unknown variant {name!r}")
    k = _ascii_int(row, f"variant {name!r}")
    if not 1 <= k <= 8:
        raise ValueError(f"row to remove must be 1..8, got {k}")
    return f"minus-r:{k}", (k,)


@dataclass(frozen=True)
class LinearSystem:
    """A square stacked system ready to solve.

    ``row_ids`` are the kept stacked rows (1..8); ``col_labels`` the kept
    transformed-parameter components.  ``guards`` carries the determinant
    diagnostics of ``x_mat`` available for this family/variant (see
    ``_GUARD_PIVOTS``).  ``y_cells`` (32 x m) and ``x_cells`` (32 x m x m)
    are the rows at each window cell and ``cells`` their weights, so that
    ``y_vec``/``x_mat`` are the weighted means of the cell rows and
    ``y_cells - x_cells @ alpha`` is the residual table.
    """

    family: str
    variant: str
    window_t: int
    y_vec: np.ndarray
    x_mat: np.ndarray
    row_ids: tuple[int, ...]
    col_labels: tuple[str, ...]
    guards: dict[str, float]
    cells: np.ndarray
    y_cells: np.ndarray
    x_cells: np.ndarray


def kept_components(family: str, variant: str) -> tuple[str, tuple[int, ...], tuple[str, ...]]:
    """A variant's canonical name, kept stacked rows (1..8) and their components.

    A component is kept exactly when some kept row reads it; a variant
    that keeps more rows than components, or fewer, is refused.
    """
    variant, removed = parse_variant(variant)
    _, x_rows = row_cells(family)
    kept_rows = tuple(r for r in range(1, 9) if r not in removed)
    read = x_rows.take(np.array(kept_rows) - 1, axis=1).any(axis=(0, 1))
    labels = alpha_labels(family)
    col_labels = tuple(c for c, used in zip(labels, read) if used)
    if len(kept_rows) != len(col_labels):
        raise ValueError(f"variant {variant!r} leaves a non-square system "
                         f"({len(kept_rows)}x{len(col_labels)}) for family {family}")
    return variant, kept_rows, col_labels


def _assemble(family: str, variant: str, stats: AggregateStats) -> LinearSystem:
    y_rows, x_rows = row_cells(family)
    variant, kept_rows, col_labels = kept_components(family, variant)
    rows = np.array(kept_rows) - 1
    cols = [alpha_labels(family).index(c) for c in col_labels]
    # ``take`` keeps the cell tables C-ordered: for the population's
    # probabilities, the order in which the means below add cells shows
    y_cells = y_rows.take(rows, axis=1)
    x_cells = x_rows.take(rows, axis=1).take(cols, axis=2)
    # for counts every cell sum is an exact integer, so these means do not
    # depend on the order in which cells are added
    cells = stats.summands.counts
    total = cells.sum()
    y = cells @ y_cells / total
    x = np.tensordot(cells, x_cells, axes=1) / total

    return LinearSystem(family=family, variant=variant, window_t=stats.window_t,
                        y_vec=y, x_mat=x, row_ids=kept_rows, col_labels=col_labels,
                        guards=_guard_values(family, variant, kept_rows, col_labels, x),
                        cells=cells, y_cells=y_cells, x_cells=x_cells)


def build_system(family: str, stats: AggregateStats, variant: str) -> LinearSystem:
    """Stack the eight moment rows of family A or B at one window."""
    if family not in ("A", "B"):
        raise ValueError(f"build_system handles families A and B, got {family!r}")
    return _assemble(family, variant, stats)


def build_system_c(stats: AggregateStats, variant: str = "full") -> LinearSystem:
    """Stack the trend-model rows at windows t and t-1.

    Both come from the aggregate at window ``t``: the rows at ``t - 1`` read
    its cells one period back.
    """
    return _assemble("C", variant, stats)


# ---------------------------------------------------------------------------
# uniqueness diagnostics

# The pivot cells (stacked row, component) of each guarded family and variant
# name: the corner pivots, the lone pivot of a one-row removal, and a sign.
# det(X) = +-corner_product * block_determinant * pivot_bar, where the corner
# product multiplies the corner pivots, the block determinant is the sign
# times the determinant of the Schur complement of every pivot in X, and
# pivot_bar is the lone pivot.  The sign keeps the block determinant of A and
# B as its closed form in the aggregate means was written.
_GUARD_PIVOTS = {
    ("A", "minus-3-7"): (((5, "d"), (6, "g"), (8, "f")), None, -1),
    ("A", "minus-r:3"): (((5, "d"), (6, "g"), (8, "f")), (7, "e"), -1),
    ("B", "minus-1-5"): (((6, "f"), (8, "g"), (7, "d")), None, -1),
    ("B", "minus-r:1"): (((6, "f"), (8, "g"), (7, "d")), (5, "e"), -1),
    ("C", "full"): (((5, "e"), (6, "f"), (7, "g"), (8, "h")), None, 1),
}


def _guard_values(family: str, variant: str, row_ids: tuple[int, ...],
                  col_labels: tuple[str, ...], x: np.ndarray) -> dict[str, float]:
    if (family, variant) not in _GUARD_PIVOTS:
        return {}
    corner, lone, sign = _GUARD_PIVOTS[family, variant]
    pivots = corner + ((lone,) if lone else ())
    rows = [row_ids.index(r) for r, _ in pivots]
    cols = [col_labels.index(c) for _, c in pivots]
    values = x[rows, cols]
    # eliminating one pivot at a time turns a zero pivot into inf or nan,
    # which ``failed_guards`` reports, where a solve would raise; LAPACK's
    # determinant of a block with nan in it may come out finite
    with np.errstate(divide="ignore", invalid="ignore"):
        for r, c in zip(rows, cols):
            x = x - np.outer(x[:, c], x[r] / x[r, c])
    block = np.delete(np.delete(x, rows, axis=0), cols, axis=1)
    det = np.linalg.det(block) if np.isfinite(block).all() else np.nan
    guards = {"corner_product": float(np.prod(values[:len(corner)])),
              "block_determinant": sign * float(det)}
    if lone:
        guards["pivot_bar"] = float(values[-1])
    return guards


def failed_guards(guards: dict[str, float]) -> list[str]:
    """Names of guard diagnostics that are (numerically) zero."""
    return [k for k, v in guards.items() if not np.isfinite(v) or abs(v) < GUARD_TOL]


# ---------------------------------------------------------------------------
# solve and variance


def _checked_inverse(mat: np.ndarray, error, what: str) -> tuple[np.ndarray, float]:
    """The inverse of ``mat`` and its exact 1-norm reciprocal condition
    ``1 / (norm(mat, 1) * norm(inv(mat), 1))``, 0 when LAPACK finds
    ``mat`` singular.

    Raises ``error(message)`` unless the condition reaches ``RCOND_TOL``;
    the message names ``what`` and reports the condition.  At these sizes
    numpy's inverse starts no BLAS thread in a forked Monte Carlo worker.
    """
    try:
        inv = np.linalg.inv(mat)
        # Python floats: a product past the float range is inf, not a warning
        rcond = 1.0 / (float(np.linalg.norm(mat, 1)) * float(np.linalg.norm(inv, 1)))
    except np.linalg.LinAlgError:
        inv, rcond = None, 0.0
    if not rcond >= RCOND_TOL:
        raise error(f"{what} is numerically singular (rcond={rcond:.3e})")
    return inv, rcond


def _guarded_error(guards: dict[str, float]):
    """``SingularSystem`` factory that ends its message with the guards."""
    def error(message: str) -> SingularSystem:
        failed = failed_guards(guards)
        if failed:
            message += "; zero determinant guards: " + ", ".join(failed)
        elif guards:
            vals = ", ".join(f"{k}={v:.3e}" for k, v in guards.items())
            message += f"; determinant guards: {vals}"
        return SingularSystem(message, guards)
    return error


def solve(system: LinearSystem) -> np.ndarray:
    """Solve the stacked system by pivoted LU with a condition guard.

    Raises ``SingularSystem`` when the reciprocal condition falls below
    ``RCOND_TOL``, reporting whichever determinant diagnostics are
    available for the variant.
    """
    x, y = system.x_mat, system.y_vec
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SingularSystem("system contains non-finite entries", system.guards)
    what = f"{system.family}[{system.variant}] system at window {system.window_t}"
    rcond = _checked_inverse(x, _guarded_error(system.guards), what)[1]
    theta = np.linalg.solve(x, y)
    # one refinement step keeps the residual at rounding level even when the
    # condition number approaches the guard threshold
    theta += np.linalg.solve(x, y - x @ theta)
    resid = np.linalg.norm(x @ theta - y)
    if resid > RESIDUAL_RTOL * np.linalg.norm(y) + 1e-300:
        raise SingularSystem(
            f"solve residual {resid:.3e} exceeds tolerance (rcond={rcond:.3e})",
            system.guards)
    return theta


def _sandwich(system: LinearSystem, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``inv(X' W X) / N`` symmetrized, ``W = inv(V' diag(c) V / N)``.

    ``v`` holds the residuals of each of the 32 window cells (one column
    per row of ``x``), ``c`` the cell weights of ``system`` and ``N`` their
    total.  Both inverses come from ``_checked_inverse``.
    """
    n = system.cells.sum()
    s_mat = (v.T * system.cells) @ v / n
    w = _checked_inverse(s_mat, SingularWeight, "residual moment matrix")[0]
    vcov = _checked_inverse(x.T @ w @ x, _guarded_error(system.guards),
                            "weighted design")[0] / n
    return (vcov + vcov.T) / 2.0


def variance(system: LinearSystem, alpha_hat: np.ndarray) -> np.ndarray:
    """Asymptotic variance of the solved parameters: of the estimate for a
    sample system, per individual for a population system.

    Raises ``SingularWeight`` when the residual second-moment matrix is
    numerically singular and ``SingularSystem`` when the weighted design is.
    """
    return _sandwich(system, system.y_cells - system.x_cells @ alpha_hat, system.x_mat)


@dataclass(frozen=True)
class TransformedEstimate:
    """Solved transformed parameters with their variance matrix."""

    family: str
    variant: str
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
                           f"{self.family}[{self.variant}]") from None

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
            "variant": self.variant,
            "window_t": self.window_t,
            "n": self.n,
            "alpha": {c: self.value(c) for c in self.col_labels},
            "se": {c: self.se(c) for c in self.col_labels},
            "vcov": {"labels": list(self.col_labels),
                     "rows": [[float(v) for v in row] for row in self.vcov]},
        }
