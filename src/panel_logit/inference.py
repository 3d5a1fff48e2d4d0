"""Original-parameter recovery, the two-step lagged effect step, and Wald tests.

The transformed parameters are products of ``exp`` terms, so the original
parameters are linear combinations of their logarithms:

* family A: ``gamma = log(d) - log(a)`` (or ``log(a) - log(e)`` when the
  ``d`` component was dropped by the variant), ``dtd_t = log(a)``,
  ``dtd_tp1 = -log(b)``;
* family B: the same ``gamma`` maps with ``dtd_t = -log(a)`` and
  ``dtd_tp1 = log(b)``;
* family C: ``gamma = log(e) - log(a)``, ``phi_coef = log(a)``.

Standard errors propagate through these maps by the delta method.

The effect step one period before the window is recovered in a second step:
a ratio of dagger-combined window ``t-1`` averages whose weights depend on
the first-stage estimates of the ``a`` and ``d`` components.  Its variance
therefore carries three extra terms beyond the stacked-system variance --
the Jacobian of the ratio with respect to the plugged-in first-stage
components against their covariances -- assembled in
``corrected_ratio_variance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .aggregation import AggregateStats, cell_kernel
from .estimators import (EstimationError, LinearSystem, TransformedEstimate,
                         _checked_solve, _sandwich)


class NonpositiveAlpha(EstimationError):
    """A transformed-parameter estimate crossed zero; its log is undefined."""


class ZeroDenominator(EstimationError):
    """The dagger ratio denominator vanished."""


class NonpositivePhiHat(EstimationError):
    """The second-step ratio is nonpositive; its log is undefined."""


class SingularRestrictionCovariance(EstimationError):
    """The restriction covariance of a Wald test is numerically singular."""


@dataclass(frozen=True)
class ParamEstimate:
    value: float
    se: float


@dataclass(frozen=True)
class OriginalEstimate:
    """Recovered original parameters, each with a delta-method s.e."""

    family: str
    gamma: ParamEstimate
    gamma_from: str
    dtd_t: ParamEstimate | None = None
    dtd_tp1: ParamEstimate | None = None
    phi_coef: ParamEstimate | None = None
    dtd_tm1: ParamEstimate | None = None

    def to_dict(self) -> dict:
        out: dict = {"family": self.family, "gamma_from": self.gamma_from}
        for name in ("gamma", "dtd_t", "dtd_tp1", "phi_coef", "dtd_tm1"):
            p = getattr(self, name)
            if p is not None:
                out[name] = {"estimate": p.value, "se": p.se}
        return out


def _require_positive(est: TransformedEstimate, labels: tuple[str, ...]) -> None:
    bad = [c for c in labels if est.value(c) <= 0.0]
    if bad:
        vals = ", ".join(f"{c}={est.value(c):.6g}" for c in bad)
        raise NonpositiveAlpha(f"cannot take logs of nonpositive components: {vals}")


def _delta_var(est: TransformedEstimate, labels: tuple[str, ...],
               grad: np.ndarray) -> float:
    cov = est.cov_block(labels)
    return float(max(grad @ cov @ grad, 0.0))


def _log_ratio(est: TransformedEstimate, num: str, den: str) -> ParamEstimate:
    _require_positive(est, (num, den))
    value = math.log(est.value(num)) - math.log(est.value(den))
    grad = np.array([1.0 / est.value(num), -1.0 / est.value(den)])
    return ParamEstimate(value, math.sqrt(_delta_var(est, (num, den), grad)))


def _signed_log(est: TransformedEstimate, label: str, sign: float) -> ParamEstimate:
    _require_positive(est, (label,))
    value = sign * math.log(est.value(label))
    var = (1.0 / est.value(label)) ** 2 * max(est.vcov[est.index(label), est.index(label)], 0.0)
    return ParamEstimate(value, math.sqrt(var))


def recover_original(est: TransformedEstimate) -> OriginalEstimate:
    """Map a transformed estimate to the original parameters.

    Raises ``NonpositiveAlpha`` when a needed component is nonpositive;
    estimates are never clamped.
    """
    if est.family in ("A", "B"):
        if est.has("d"):
            gamma, src = _log_ratio(est, "d", "a"), "d"
        else:
            gamma, src = _log_ratio(est, "a", "e"), "e"
        sign = 1.0 if est.family == "A" else -1.0
        return OriginalEstimate(
            family=est.family,
            gamma=gamma, gamma_from=src,
            dtd_t=_signed_log(est, "a", sign),
            dtd_tp1=_signed_log(est, "b", -sign),
        )
    if est.family == "C":
        return OriginalEstimate(
            family="C",
            gamma=_log_ratio(est, "e", "a"), gamma_from="e",
            phi_coef=_signed_log(est, "a", 1.0),
        )
    raise ValueError(f"unknown family {est.family!r}")


# ---------------------------------------------------------------------------
# two-step estimation of the pre-window effect step


@dataclass(frozen=True)
class TwoStepResult:
    """Second-step effect-step estimate with corrected variance."""

    dtd_tm1: ParamEstimate
    ratio: float                 # dagger ratio (effect step, or its inverse for B)
    var_ratio: float             # stacked-system variance of the ratio
    var_ratio_corrected: float   # plus the first-stage plug-in terms

    def to_dict(self) -> dict:
        return {"dtd_tm1": {"estimate": self.dtd_tm1.value, "se": self.dtd_tm1.se},
                "ratio": self.ratio,
                "var_ratio": self.var_ratio,
                "var_ratio_corrected": self.var_ratio_corrected}


def corrected_ratio_variance(var_ratio: float, cov_with_stage1: np.ndarray,
                             cov_stage1: np.ndarray, jac: np.ndarray) -> float:
    """Plug-in correction for a ratio built from estimated first-stage weights.

    ``cov_with_stage1`` holds the covariances of the ratio with the two
    plugged-in components, ``cov_stage1`` their 2x2 covariance, and ``jac``
    the derivative of the ratio in those components.  With all covariance
    inputs zero this reduces to ``var_ratio``.
    """
    return float(var_ratio + 2.0 * jac @ cov_with_stage1 + jac @ cov_stage1 @ jac)


def _dagger_selector(family: str) -> tuple[str, str]:
    """Kernel family and selector of the dagger averages of a family."""
    if family == "A":
        return "theta", "-"
    if family == "B":
        return "xi", "+"
    raise ValueError("the two-step effect step applies to families A and B, "
                     f"got {family!r}")


def _dagger_ratio(bars, a_hat: float, d_hat: float) -> tuple[float, float]:
    """Second-step ratio and its denominator from the four dagger averages."""
    b1, b2, b3, b4 = bars
    num = a_hat * b1 + b2
    den = a_hat * a_hat * b3 + d_hat * b4
    if den == 0.0:
        raise ZeroDenominator("dagger denominator at the preceding window is zero")
    return -num / den, den


def two_step_ratio(family: str, stats: AggregateStats, a_hat: float,
                   d_hat: float) -> float:
    """Point value of the second-step ratio (effect step, or its inverse for B).

    ``stats`` is the aggregate at the first-stage window ``t``; the dagger
    averages are its means one window back.  Usable on population
    aggregates as well as samples; the full ``two_step_dtd_tm1``
    additionally needs a sample system for the corrected variance.
    """
    kind, sel = _dagger_selector(family)
    bars = [stats.bar(kind, j, sel, back=1) for j in range(1, 5)]
    return _dagger_ratio(bars, a_hat, d_hat)[0]


def two_step_dtd_tm1(est: TransformedEstimate, system: LinearSystem) -> TwoStepResult:
    """Estimate the effect step at ``window_t - 1`` from first-stage results.

    ``system`` is the sample system the first stage ``est`` solved.  The
    dagger averages at window ``t - 1`` read four of the five periods of
    its window cells, so the dagger row borders the system cell by cell
    and its variance is the first stage's sandwich with one more row.
    Unavailable for variants that drop the ``d`` component.
    """
    kind, sel = _dagger_selector(est.family)
    if not est.has("d"):
        raise ValueError(f"variant {est.variant.name!r} drops component 'd'; "
                         "the second step is unavailable")

    a_hat, d_hat = est.value("a"), est.value("d")
    kern = np.stack([cell_kernel(kind, j, sel, back=1) for j in range(1, 5)], axis=1)
    # exact for counts: the same means as ``stats.bar(kind, j, sel, back=1)``
    bars = (system.cells @ kern / system.cells.sum()).tolist()
    ratio, den = _dagger_ratio(bars, a_hat, d_hat)
    if ratio <= 0.0:
        raise NonpositivePhiHat(f"second-step ratio {ratio:.6g} is nonpositive")

    # stacked dagger system: ratio row and column bordering the first stage
    m = len(system.row_ids)
    x_dag = np.zeros((m + 1, m + 1))
    x_dag[0, 0] = den
    x_dag[1:, 1:] = system.x_mat
    y_i = -(a_hat * kern[:, 0] + kern[:, 1])
    x_i = a_hat * a_hat * kern[:, 2] + d_hat * kern[:, 3]
    v = np.column_stack((y_i - x_i * ratio,
                         system.y_cells - system.x_cells @ est.alpha))
    vcov_dag = _sandwich(system, v, x_dag)

    b1, _, b3, b4 = bars
    jac = np.array([-(b1 + 2.0 * ratio * a_hat * b3) / den,
                    -ratio * b4 / den])
    idx_a = 1 + est.index("a")
    idx_d = 1 + est.index("d")
    var_ratio = vcov_dag[0, 0]
    cov_with = np.array([vcov_dag[0, idx_a], vcov_dag[0, idx_d]])
    cov_stage1 = vcov_dag[np.ix_((idx_a, idx_d), (idx_a, idx_d))]
    var_corr = corrected_ratio_variance(var_ratio, cov_with, cov_stage1, jac)

    sign = 1.0 if est.family == "A" else -1.0  # B estimates the inverse step
    value = sign * math.log(ratio)
    var_dtd = (1.0 / ratio) ** 2 * max(var_corr, 0.0)
    return TwoStepResult(dtd_tm1=ParamEstimate(value, math.sqrt(var_dtd)),
                         ratio=ratio, var_ratio=float(var_ratio),
                         var_ratio_corrected=float(var_corr))


# ---------------------------------------------------------------------------
# Wald tests of the log-linear restrictions


@dataclass(frozen=True)
class WaldResult:
    statistic: float
    df: int
    p_value: float

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "df": self.df, "p_value": self.p_value}


_LABELS_6 = ("a", "b", "c", "d", "f", "g")
_LABELS_8 = ("a", "b", "c", "d", "e", "f", "g", "h")

# rows annihilate the log-parameter vector at any true parameter point
RESTRICTION_SETS: dict[str, tuple[tuple[str, ...], np.ndarray]] = {
    "ab-dummies": (_LABELS_6, np.array([
        [1, -1, -1, 0, 0, 0],
        [1, 1, 0, -1, -1, 0],
        [2, -1, 0, -1, 0, -1],
    ], dtype=np.float64)),
    "c-trend": (_LABELS_8, np.array([
        [-1, -1, 0, 0, 0, 0, 0, 0],
        [2, 0, -1, 0, 0, 0, 0, 0],
        [-2, 0, 0, -1, 0, 0, 0, 0],
        [2, 0, 0, 0, -1, -1, 0, 0],
        [-2, 0, 0, 0, 1, 0, -1, 0],
        [0, 0, 0, 0, -1, 0, 0, -1],
    ], dtype=np.float64)),
    "ab-trend": (_LABELS_6, np.array([
        [-1, -1, 0, 0, 0, 0],
        [2, 0, -1, 0, 0, 0],
        [0, 0, 0, -1, -1, 0],
        [3, 0, 0, -1, 0, -1],
    ], dtype=np.float64)),
}


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution via the regularized
    incomplete gamma function."""
    if x < 0.0:
        return 1.0
    return float(gammaincc(df / 2.0, x / 2.0))


def wald_test(est: TransformedEstimate, restriction_set: str) -> WaldResult:
    """Test the log-linear restrictions implied by the parameter structure.

    The statistic is ``(R l)' inv(R V_l R') (R l)`` with ``l = log(alpha)``
    elementwise and ``V_l`` the delta-method covariance of the logs;
    asymptotically chi-square with one degree of freedom per restriction.
    """
    try:
        labels, rows = RESTRICTION_SETS[restriction_set]
    except KeyError:
        raise ValueError(f"unknown restriction set {restriction_set!r}; "
                         f"choose from {sorted(RESTRICTION_SETS)}") from None
    if est.col_labels != labels:
        raise ValueError(
            f"restriction set {restriction_set!r} expects components {labels}, "
            f"estimate has {est.col_labels}")
    _require_positive(est, labels)

    alpha = est.alpha
    ell = np.log(alpha)
    v_log = est.vcov / np.outer(alpha, alpha)
    gap = rows @ ell
    cov_gap = rows @ v_log @ rows.T

    solved = _checked_solve(cov_gap, gap, SingularRestrictionCovariance,
                            "restriction covariance")
    stat = float(max(gap @ solved, 0.0))
    df = rows.shape[0]
    return WaldResult(statistic=stat, df=df, p_value=chi2_sf(stat, df))
