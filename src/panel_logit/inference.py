"""Original-parameter recovery, the two-step lagged effect step, and Wald tests.

The transformed parameters are ``alpha = exp(M @ beta)`` for the integer
exponent table M of ``kernels.EXPONENTS``, so the original parameters beta
are linear in ``log(alpha)``.  Recovery solves ``beta = inv(M_S) @
log(alpha_S)`` on the paper's basis components S, with the delta-method
covariance ``J V_S J'``, ``J = inv(M_S) @ diag(1 / alpha_S)``.  The Wald
restrictions are M's left null space: a row ``log(alpha_k) - M_k @ inv(M_S)
@ log(alpha_S)`` for each tested component k outside S.

The effect step one period before the window is recovered in a second step:
a ratio of dagger-combined window ``t-1`` averages whose weights depend on
the first-stage estimates of the ``a`` and ``d`` components.  Its variance
therefore carries three extra terms beyond the stacked-system variance:
the Jacobian of the ratio with respect to the plugged-in first-stage
components against their covariances.

Every variance here comes from the sandwich of ``estimators``, which
divides by the total cell weight N: for a sample it is the variance of the
estimate, and for the population (exact cell probabilities, N = 1) the
asymptotic variance per individual, the large-N limit of N times a
sample's variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .estimators import (EstimationError, LinearSystem, TransformedEstimate,
                         _checked_inverse, _sandwich)
from .kernels import DAGGER_CELLS, alpha_labels, exponents


class NonpositiveAlpha(EstimationError):
    """A transformed-parameter estimate crossed zero; its log is undefined."""
    status = "nonpositive_alpha"


class ZeroDenominator(EstimationError):
    """The dagger ratio denominator vanished."""
    status = "two_step_zero_denominator"


class NonpositivePhiHat(EstimationError):
    """The second-step ratio is nonpositive; its log is undefined."""
    status = "two_step_nonpositive"


class SingularRestrictionCovariance(EstimationError):
    """The restriction covariance of a Wald test is numerically singular."""
    status = "singular_restriction_covariance"


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

    def params(self) -> dict[str, ParamEstimate]:
        """The recovered parameters, by name, in reporting order."""
        names = ("gamma", "dtd_t", "dtd_tp1", "phi_coef", "dtd_tm1")
        return {n: getattr(self, n) for n in names if getattr(self, n) is not None}

    def to_dict(self) -> dict:
        out: dict = {"family": self.family, "gamma_from": self.gamma_from}
        out.update({n: {"estimate": p.value, "se": p.se} for n, p in self.params().items()})
        return out


def _require_positive(est: TransformedEstimate, labels: tuple[str, ...]) -> None:
    bad = [c for c in labels if est.value(c) <= 0.0]
    if bad:
        vals = ", ".join(f"{c}={est.value(c):.6g}" for c in bad)
        raise NonpositiveAlpha(f"cannot take logs of nonpositive components: {vals}")


@cache
def _basis(family: str, model: str, has_d: bool) -> tuple[tuple[str, ...], np.ndarray]:
    """Basis components S of a model and the exact integer inverse of M_S.

    S is ``(a, d, b)``, or ``(a, e, b)`` without ``d``; a trend model keeps
    two, and family C's are ``(a, e)``.  Each M_S is unimodular.
    """
    m = exponents(family, model)
    basis = ("a", "d" if has_d and family != "C" else "e", "b")[:m.shape[1]]
    m_s = m[[alpha_labels(family).index(c) for c in basis]]
    inv = np.rint(np.linalg.inv(m_s)).astype(np.int64)
    if not (m_s @ inv == np.eye(len(basis), dtype=np.int64)).all():
        raise ValueError(f"{family} {model} basis {basis} is not unimodular")
    inv.flags.writeable = False
    return basis, inv


def recover_original(est: TransformedEstimate) -> OriginalEstimate:
    """Map a transformed estimate to the original parameters.

    Raises ``NonpositiveAlpha`` when a basis component is nonpositive;
    estimates are never clamped.
    """
    model = "trend" if est.family == "C" else "dummies"
    basis, inv = _basis(est.family, model, est.has("d"))
    _require_positive(est, basis)
    alpha_s = np.array([est.value(c) for c in basis])
    beta = inv @ np.array([math.log(v) for v in alpha_s])
    jac = inv / alpha_s
    var = np.diag(jac @ est.cov_block(basis) @ jac.T)
    params = [ParamEstimate(float(b), math.sqrt(max(v, 0.0))) for b, v in zip(beta, var)]
    if model == "trend":
        return OriginalEstimate(family=est.family, gamma=params[0], gamma_from="e",
                                phi_coef=params[1])
    return OriginalEstimate(family=est.family, gamma=params[0], gamma_from=basis[1],
                            dtd_t=params[1], dtd_tp1=params[2])


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


def _dagger_selector(family: str, variant: str, kept: tuple[str, ...]) -> np.ndarray:
    """The dagger kernels of a family at the 32 window cells
    (``kernels.DAGGER_CELLS``), refusing family C and a variant (by name)
    whose ``kept`` lack ``d``."""
    if family not in ("A", "B"):
        raise ValueError("the two-step effect step applies to families A and B, "
                         f"got {family!r}")
    if "d" not in kept:
        raise ValueError(f"variant {variant!r} drops component 'd'; "
                         "the second step is unavailable")
    return DAGGER_CELLS[family]


def two_step_dtd_tm1(est: TransformedEstimate, system: LinearSystem) -> TwoStepResult:
    """Estimate the effect step at ``window_t - 1`` from first-stage results.

    ``system`` is the system the first stage ``est`` solved, of a sample
    or of the population.  The dagger averages at window ``t - 1`` read
    four of the five periods of its window cells, so the dagger row
    borders the system cell by cell and its variance is the first stage's
    sandwich with one more row.  Refused, as an ``EstimatorRun`` refuses
    the line, on family C and on variants that drop the ``d`` component.
    """
    kern = _dagger_selector(est.family, est.variant, est.col_labels)

    a_hat, d_hat = est.value("a"), est.value("d")
    # exact for counts: the means an aggregate at window t - 1 would give
    b1, b2, b3, b4 = (system.cells @ kern / system.cells.sum()).tolist()
    den = a_hat * a_hat * b3 + d_hat * b4
    if den == 0.0:
        raise ZeroDenominator("dagger denominator at the preceding window is zero")
    ratio = -(a_hat * b1 + b2) / den
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

    jac = np.array([-(b1 + 2.0 * ratio * a_hat * b3) / den,
                    -ratio * b4 / den])
    idx_a = 1 + est.index("a")
    idx_d = 1 + est.index("d")
    var_ratio = vcov_dag[0, 0]
    cov_with = np.array([vcov_dag[0, idx_a], vcov_dag[0, idx_d]])
    cov_stage1 = vcov_dag[np.ix_((idx_a, idx_d), (idx_a, idx_d))]
    var_corr = float(var_ratio + 2.0 * jac @ cov_with + jac @ cov_stage1 @ jac)

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


# each set: the components it tests and the model they follow
RESTRICTION_SETS: dict[str, tuple[tuple[str, ...], str]] = {
    "ab-dummies": (("a", "b", "c", "d", "f", "g"), "dummies"),
    "c-trend": (("a", "b", "c", "d", "e", "f", "g", "h"), "trend"),
    "ab-trend": (("a", "b", "c", "d", "f", "g"), "trend"),
}


def _restriction_labels(restriction_set: str, kept: tuple[str, ...]) -> tuple[str, ...]:
    """The components a restriction set tests, refusing an unknown set or
    one whose components are not the ``kept`` ones."""
    if restriction_set not in RESTRICTION_SETS:
        raise ValueError(f"unknown restriction set {restriction_set!r}; "
                         f"choose from {sorted(RESTRICTION_SETS)}")
    labels = RESTRICTION_SETS[restriction_set][0]
    if labels != kept:
        raise ValueError(f"restriction set {restriction_set!r} expects components "
                         f"{labels}, the variant keeps {kept}")
    return labels


def restriction_rows(family: str, restriction_set: str) -> np.ndarray:
    """Rows R with ``R @ log(alpha) == 0`` under the set's model: one per
    tested component outside the basis, spanning the left null space of M."""
    labels, model = RESTRICTION_SETS[restriction_set]
    basis, inv = _basis(family, model, "d" in labels)
    m = exponents(family, model)[[alpha_labels(family).index(c) for c in labels]]
    rest = [k for k, c in enumerate(labels) if c not in basis]
    rows = np.eye(len(labels))[rest]
    rows[:, [labels.index(c) for c in basis]] = -(m[rest] @ inv)
    return rows


def chi2_sf(stat: float, df: int) -> float:
    """``P(X > stat)`` for X chi-square with a whole number ``df`` of degrees
    of freedom, in closed form with ``h = stat / 2``: the Poisson sum
    ``exp(-h) * sum(h**j / j!, j < df / 2)`` for even df, and for odd df
    ``erfc(sqrt(h)) + exp(-h) * sum(h**(j + 1/2) / Gamma(j + 3/2), j < (df - 1) / 2)``.

    Each term is the exp of its log, so no factor underflows on its own: the
    tail is 1 at 0, and 0 where the terms underflow and at infinity.
    """
    h = stat / 2
    if h == 0.0:
        return 1.0
    if h == math.inf:       # log h would make 0 * inf
        return 0.0
    half = (df % 2) / 2
    tail = math.erfc(math.sqrt(h)) if half else 0.0
    log_h = math.log(h)
    for j in range(df // 2):
        power = j + half
        tail += math.exp(power * log_h - h - math.lgamma(power + 1))
    return tail


def wald_test(est: TransformedEstimate, restriction_set: str) -> WaldResult:
    """Test the log-linear restrictions implied by the parameter structure.

    The statistic is ``(R l)' inv(R V_l R') (R l)`` with ``l = log(alpha)``
    elementwise and ``V_l`` the delta-method covariance of the logs;
    asymptotically chi-square with one degree of freedom per restriction.
    Its p-value is the closed-form chi-square upper tail ``chi2_sf``.
    """
    labels = _restriction_labels(restriction_set, est.col_labels)
    _require_positive(est, labels)
    rows = restriction_rows(est.family, restriction_set)

    alpha = est.alpha
    ell = np.log(alpha)
    v_log = est.vcov / np.outer(alpha, alpha)
    gap = rows @ ell
    cov_gap = rows @ v_log @ rows.T

    inv = _checked_inverse(cov_gap, SingularRestrictionCovariance,
                           "restriction covariance")[0]
    stat = float(max(gap @ inv @ gap, 0.0))
    df = rows.shape[0]
    return WaldResult(statistic=stat, df=df, p_value=chi2_sf(stat, df))
