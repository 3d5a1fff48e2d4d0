"""Exact, estimator-independent verification layer.

All checks here are finite enumerations: conditional expectations over the
eight three-period continuation paths, population moments over the outcome
histories of the estimation window mixed across an explicit grid of
fixed-effect values, and numerical ranks of moment-function value matrices
over complete window enumerations.  Nothing is simulated, so pass/fail
assertions carry no Monte Carlo error.  The population is a 32-cell window
table like a sample's, weighted by exact probabilities instead of counts,
and goes through the same aggregation builder.

The fixed-effect heterogeneity enters through finite grids because the
conditional moment identities hold pointwise in the fixed effect; any grid
mixture therefore inherits them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .aggregation import AggregateStats, from_cells
from .estimators import (LinearSystem, Variant, VARIANT_FULL, VARIANT_MINUS_15,
                         VARIANT_MINUS_37, build_system, build_system_c, solve,
                         variant_minus_r, TransformedEstimate)
from .inference import recover_original
from .kernels import Window5, all_windows, alpha_from_spec, alpha_labels
from .model import ModelSpec, TimeDummiesSpec, TimeTrendSpec, chain_law, logit_prob


@dataclass(frozen=True)
class ConditioningState:
    """Conditioning information for the three-period continuation law."""

    spec: ModelSpec
    t: int
    eta: float
    y_tm2: int
    y_tm3: int = 0

    def __post_init__(self):
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if self.y_tm2 not in (0, 1) or self.y_tm3 not in (0, 1):
            raise ValueError("conditioning outcomes must be 0 or 1")


def path_law(state: ConditioningState) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Joint law of (y_{t-1}, y_t, y_{t+1}) given the conditioning state.

    Probabilities are products of the three one-step transition
    probabilities; they sum to one by construction.
    """
    spec, t, eta = state.spec, state.t, state.eta
    paths, probs = [], []
    for y1, y0, yp in product((0, 1), repeat=3):
        p1 = logit_prob(eta, spec.gamma, state.y_tm2, spec.effect(t - 1))
        p2 = logit_prob(eta, spec.gamma, y1, spec.effect(t))
        p3 = logit_prob(eta, spec.gamma, y0, spec.effect(t + 1))
        pr = (p1 if y1 else 1.0 - p1) * (p2 if y0 else 1.0 - p2) * (p3 if yp else 1.0 - p3)
        paths.append((y1, y0, yp))
        probs.append(pr)
    return paths, np.array(probs)


def conditional_moment(state: ConditioningState,
                       fn: Callable[[Window5], float]) -> float:
    """Expectation of a window function under the continuation law."""
    paths, probs = path_law(state)
    total = 0.0
    for (y1, y0, yp), pr in zip(paths, probs):
        total += pr * fn((state.y_tm3, state.y_tm2, y1, y0, yp))
    return total


def moment_row_function(family: str, which: int, spec: ModelSpec,
                        t: int) -> Callable[[Window5], float]:
    """Moment row (kernel expansion) at the true transformed parameters."""
    alphas = alpha_from_spec(family, spec, t)
    return lambda w: kernels.transformed_moment_row(family, which, w, alphas)


def hbar_function(kind: str, spec: ModelSpec, t: int) -> Callable[[Window5], float]:
    """One of the two conditional moment forms at the true parameters."""
    phi_t, phi_tp1 = spec.phi_pair(t)
    delta = spec.delta
    form = {"u": kernels.hbar_u, "upsilon": kernels.hbar_upsilon}[kind]
    return lambda w: form(w, delta, phi_t, phi_tp1)


# ---------------------------------------------------------------------------
# exact population moments


def population_aggregates(spec: ModelSpec, t: int, eta_nodes: Sequence[float],
                          eta_weights: Sequence[float]) -> AggregateStats:
    """Exact expected kernel averages at window ``t``.

    The chain runs from period 1 but is enumerated over the window periods
    ``t-3 .. t+1`` only, so the law of the window cells, mixed over the
    fixed-effect grid, holds 32 cells per grid node at any ``t``.  The
    cells go through the builder a sample's counts go through, with ``n =
    0`` (no sample).
    """
    if t < 4:
        raise ValueError(f"window {t} needs period {t - 3}, the chain starts at period 1")
    weights = np.asarray(eta_weights, dtype=np.float64)
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("eta grid weights must sum to 1")
    law = weights @ chain_law(spec, np.asarray(eta_nodes, dtype=np.float64), 5, t - 3)
    return from_cells(t, law, n=0)


def population_system(family: str, spec: ModelSpec, t: int,
                      eta_nodes: Sequence[float], eta_weights: Sequence[float],
                      variant: Variant) -> LinearSystem:
    """Stacked system built from exact population moments."""
    stats = population_aggregates(spec, t, eta_nodes, eta_weights)
    if family != "C":
        return build_system(family, stats, variant)
    return build_system_c(stats, variant)


# ---------------------------------------------------------------------------
# rank analysis of the moment-function sets


def _value_matrix(family: str, spec: ModelSpec, t: int,
                  rows: Sequence[int]) -> np.ndarray:
    """Moment rows at the true parameters, one column per window-``t``
    pattern ``(y_{t-3}, .., y_{t+1})``.

    Rows 5..8 are rows 1..4 interacted with ``y_{t-3}`` (A, B) or at window
    ``t - 1`` (C), which read ``y_{t-3} .. y_t`` and not ``y_{t-4}``.
    """
    alphas = alpha_from_spec(family, spec, t)
    alphas_tm1 = alpha_from_spec(family, spec, t - 1) if family == "C" else alphas
    wins = all_windows()
    mat = np.empty((len(rows), len(wins)))
    for k, row_id in enumerate(rows):
        base = (row_id - 1) % 4 + 1
        for c, w in enumerate(wins):
            if row_id <= 4:
                mat[k, c] = kernels.transformed_moment_row(family, base, w, alphas)
            elif family == "C":
                mat[k, c] = kernels.transformed_moment_row(family, base, (0,) + w[:4],
                                                           alphas_tm1)
            else:
                mat[k, c] = kernels.transformed_moment_row(family, base, w, alphas) * w[0]
    return mat


def moment_rank(family: str, spec: ModelSpec, t: int,
                rows: Sequence[int] | None = None,
                rel_tol: float = 1e-10) -> int:
    """Numerical rank of the moment functions as vectors over all windows."""
    if rows is None:
        rows = tuple(range(1, 9))
    svals = np.linalg.svd(_value_matrix(family, spec, t, rows), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rel_tol * svals[0]))


def variant_rows(variant: Variant) -> tuple[int, ...]:
    return tuple(r for r in range(1, 9) if r not in variant.removed_rows)


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


def check_identities(n_draws: int = 50, seed: int = 20240801,
                     theta_fn=None, xi_fn=None, tol: float = 1e-12) -> CheckResult:
    """Kernel expansions equal their rescaled conditional-form values.

    ``theta_fn``/``xi_fn`` allow substituting mutated kernels, which must
    break this check; the default uses the real ones.
    """
    theta_fn = theta_fn or kernels.theta_kernels
    xi_fn = xi_fn or kernels.xi_kernels
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        gamma = rng.uniform(-2.0, 2.0)
        s_t, s_tp1 = rng.uniform(-1.0, 1.0, size=2)
        delta = math.exp(gamma) - 1.0
        phi_t, phi_tp1 = math.exp(s_t), math.exp(s_tp1)
        cases = [("A", phi_t, phi_tp1), ("B", phi_t, phi_tp1), ("C", phi_t, phi_t)]
        for family, p2, p3 in cases:
            alphas = kernels.alpha_values(family, delta, p2, p3)
            labels = alpha_labels(family)
            named = dict(zip(labels, alphas))
            for which in range(1, 5):
                kind, sel, coeffs = kernels.ROW_TABLE[family][which - 1]
                for w in all_windows():
                    kern = theta_fn(w) if kind == "theta" else xi_fn(w)
                    selector = (1 - w[1]) if sel == "-" else w[1]
                    expansion = selector * sum(
                        (1.0 if c == "1" else named[c]) * k
                        for c, k in zip(coeffs, kern))
                    scaled = kernels.scaled_hbar_row(family, which, w, delta, p2, p3)
                    rel = abs(expansion - scaled) / max(abs(expansion), abs(scaled), 1.0)
                    worst = max(worst, rel)
    return CheckResult("kernel-expansion identities", worst <= tol, worst, tol,
                       f"{n_draws} parameter draws x 32 windows x 12 rows")


def check_zero_means(tol: float = 1e-12) -> CheckResult:
    """All moment functions have zero conditional mean at true parameters."""
    dummies = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
    trend = TimeTrendSpec(gamma=1.0, phi_coef=0.3, tau=1.0)
    worst = 0.0
    cases: list[tuple[ModelSpec, int, tuple[str, ...]]] = [
        (dummies, 5, ("A", "B")),
        (dummies, 7, ("A", "B")),
        (trend, 6, ("A", "B", "C")),
    ]
    for spec, t, families in cases:
        fns: list[Callable[[Window5], float]] = [
            hbar_function("u", spec, t), hbar_function("upsilon", spec, t)]
        for family in families:
            fns.extend(moment_row_function(family, which, spec, t)
                       for which in range(1, 5))
        for eta in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for y_tm2 in (0, 1):
                for y_tm3 in (0, 1):
                    state = ConditioningState(spec=spec, t=t, eta=eta,
                                              y_tm2=y_tm2, y_tm3=y_tm3)
                    for fn in fns:
                        worst = max(worst, abs(conditional_moment(state, fn)))
    return CheckResult("zero conditional means", worst <= tol, worst, tol,
                       "grid of eta x pre-window outcomes, both models")


def check_vanishing_rows(tol: float = 0.0) -> CheckResult:
    """With the pre-window outcome at 0, rows 2 and 3 of family A vanish."""
    spec = spec_with_steps(0.7, 0.25, -0.4)
    a2 = moment_row_function("A", 2, spec, 5)
    a3 = moment_row_function("A", 3, spec, 5)
    worst = 0.0
    for w in all_windows():
        if w[1] == 0:
            worst = max(worst, abs(a2(w)), abs(a3(w)))
    return CheckResult("pre-window-zero rows vanish", worst <= tol, worst, tol)


def check_three_period_rank() -> CheckResult:
    """The two surviving rows cannot identify three parameters.

    Restricted to histories with the pre-window outcome at 0, the value
    matrix of rows A1 and A4 over the eight continuations has rank at most
    2, one short of the three unknown parameters.
    """
    spec = spec_with_steps(0.7, 0.25, -0.4)
    alphas = alpha_from_spec("A", spec, 5)
    rows = []
    for which in (1, 4):
        row = []
        for y1, y0, yp in product((0, 1), repeat=3):
            row.append(kernels.transformed_moment_row("A", which, (0, 0, y1, y0, yp), alphas))
        rows.append(row)
    rank = np.linalg.matrix_rank(np.array(rows), tol=1e-10)
    return CheckResult("three-period underidentification", rank <= 2 < 3,
                       float(rank), 2.0, f"rank {rank} of 2 rows vs 3 parameters")


def check_ranks() -> list[CheckResult]:
    """Full rank at generic parameters; rank collapse at the stated loci."""
    out = []
    generic = spec_with_steps(1.0, 0.2, -0.1)
    locus = spec_with_steps(0.0, 0.2, 0.0)  # state dependence and next step both zero
    t = 5

    r = moment_rank("A", generic, t)
    out.append(CheckResult("family A full set rank (generic)", r == 8, float(r), 8.0))
    for family, variant in (("A", VARIANT_MINUS_37), ("B", VARIANT_MINUS_15)):
        rows = variant_rows(variant)
        r_gen = moment_rank(family, generic, t, rows)
        out.append(CheckResult(f"family {family} {variant.name} rank (generic)",
                               r_gen == 6, float(r_gen), 6.0))
        r_loc = moment_rank(family, locus, t, rows)
        out.append(CheckResult(f"family {family} {variant.name} rank (degenerate locus)",
                               r_loc < 6, float(r_loc), 6.0,
                               "rank must drop below 6"))
    trend_gen = TimeTrendSpec(gamma=1.0, phi_coef=0.3)
    trend_loc = TimeTrendSpec(gamma=0.0, phi_coef=0.0)
    r_gen = moment_rank("C", trend_gen, t)
    out.append(CheckResult("family C rank (generic)", r_gen == 8, float(r_gen), 8.0))
    r_loc = moment_rank("C", trend_loc, t)
    out.append(CheckResult("family C rank (degenerate locus)", r_loc < 8,
                           float(r_loc), 8.0, "rank must drop below 8"))
    out.append(check_three_period_rank())
    return out


_AB_GRID = ((1.0, 0.2, -0.1), (-0.5, 0.4, 0.3), (0.3, -0.6, 0.5))
_C_GRID = ((1.0, 0.3), (-0.7, -0.2), (0.4, 0.1))
_ETA_GRID = ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))


def population_estimate(family: str, spec: ModelSpec, t: int,
                        variant: Variant) -> TransformedEstimate:
    """Solve a population system and wrap it with a zero variance matrix."""
    system = population_system(family, spec, t, _ETA_GRID[0], _ETA_GRID[1], variant)
    alpha = solve(system)
    return TransformedEstimate(family=family, variant=variant, window_t=t,
                               n=0, col_labels=system.col_labels, alpha=alpha,
                               vcov=np.zeros((len(alpha), len(alpha))))


def check_population(tol: float = 1e-8) -> list[CheckResult]:
    """Population systems return the true parameters for every variant."""
    out = []
    t = 5
    variants = [variant_minus_r(r) for r in range(1, 9)]
    variants += [VARIANT_MINUS_37, VARIANT_MINUS_15]

    worst_alpha = 0.0
    worst_orig = 0.0
    for gamma, dtd_t, dtd_tp1 in _AB_GRID:
        spec = spec_with_steps(gamma, dtd_t, dtd_tp1, t=t)
        for family in ("A", "B"):
            true_full = alpha_from_spec(family, spec, t)
            labels = alpha_labels(family)
            for variant in variants:
                est = population_estimate(family, spec, t, variant)
                for c, v in zip(est.col_labels, est.alpha):
                    worst_alpha = max(worst_alpha, abs(v - true_full[labels.index(c)]))
                orig = recover_original(est)
                worst_orig = max(worst_orig,
                                 abs(orig.gamma.value - gamma),
                                 abs(orig.dtd_t.value - dtd_t),
                                 abs(orig.dtd_tp1.value - dtd_tp1))
    out.append(CheckResult("population recovery, families A and B",
                           worst_alpha <= tol and worst_orig <= tol,
                           max(worst_alpha, worst_orig), tol,
                           f"{len(_AB_GRID)} parameter points x {len(variants)} variants"))

    worst_alpha = worst_orig = 0.0
    for gamma, phi_coef in _C_GRID:
        spec = TimeTrendSpec(gamma=gamma, phi_coef=phi_coef, tau=1.0)
        true_full = alpha_from_spec("C", spec, t)
        est = population_estimate("C", spec, t, VARIANT_FULL)
        worst_alpha = max(worst_alpha, float(np.max(np.abs(est.alpha - true_full))))
        orig = recover_original(est)
        worst_orig = max(worst_orig, abs(orig.gamma.value - gamma),
                         abs(orig.phi_coef.value - phi_coef))
    out.append(CheckResult("population recovery, family C",
                           worst_alpha <= tol and worst_orig <= tol,
                           max(worst_alpha, worst_orig), tol,
                           f"{len(_C_GRID)} parameter points"))
    return out


CHECK_LEVELS = ("identities", "moments", "ranks", "population")


def run_checks(levels: Sequence[str] | None = None) -> list[CheckResult]:
    """Run the requested check levels; default runs everything."""
    levels = tuple(levels) if levels else CHECK_LEVELS
    unknown = [lv for lv in levels if lv not in CHECK_LEVELS]
    if unknown:
        raise ValueError(f"unknown verify levels {unknown}; choose from {CHECK_LEVELS}")
    results: list[CheckResult] = []
    for lv in levels:
        if lv == "identities":
            results.append(check_identities())
            results.append(check_vanishing_rows())
        elif lv == "moments":
            results.append(check_zero_means())
        elif lv == "ranks":
            results.extend(check_ranks())
        elif lv == "population":
            results.extend(check_population())
    return results


def format_report(results: Sequence[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  max violation {r.max_violation:.3e}"
                     f"  (tol {r.tolerance:.3e})" + (f"  {r.detail}" if r.detail else ""))
    return "\n".join(lines)
