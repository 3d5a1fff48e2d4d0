"""Variances on the 32-cell window table against a per-individual reference.

The reference below forms the residual second moments the textbook way,
``S = mean_i v_i v_i'`` over every individual of the panel.  Each
individual's residual row is minus its scalar moment rows at the solved
``alpha`` (``scalar_kernels.transformed_moment_row``): rows 1..4 at window
``t``, rows 5..8 the same times ``y_{t-3}`` (families A, B) or at window
``t - 1`` (family C).  The two-step's extra row and its kernel means come
from the scalar kernels of ``scalar_kernels`` at window ``t - 1``, not from
``kernels.DAGGER_CELLS``.  The reference so shares neither the stacked
layout nor the cell tables of ``kernels`` with the code under test.
"""

import numpy as np
import pytest

from panel_logit import (DgpConfig, PanelData, TimeDummiesSpec, TimeTrendSpec,
                         aggregate, alpha_labels, build_system, build_system_c,
                         estimate_panel, simulate_panel, solve, two_step_dtd_tm1, variance)
from panel_logit.estimators import TransformedEstimate
from scalar_kernels import SELECTORS, transformed_moment_row, window_kernels

SPEC_DUMMIES = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
SPEC_TREND = TimeTrendSpec(gamma=1.0, phi_coef=0.3)


def _windows(y, t0, t):
    """One individual's windows at t and t - 1: periods t-3..t+1 and t-4..t."""
    return tuple(y[t - 3 - t0:t + 2 - t0]), tuple(y[t - 4 - t0:t + 1 - t0])


def _scalar_rows(family, row_ids, w_t, w_tm1, alphas):
    """Stacked moment rows of one individual from the scalar expansion."""
    out = []
    for row_id in row_ids:
        base = (row_id - 1) % 4 + 1
        if row_id <= 4:
            out.append(transformed_moment_row(family, base, w_t, alphas))
        elif family == "C":
            out.append(transformed_moment_row(family, base, w_tm1, alphas))
        else:
            out.append(transformed_moment_row(family, base, w_t, alphas) * w_t[0])
    return np.array(out)


def _dagger_kernels(w_tm1, kind, sel):
    """Selected kernels 1..4 of one individual at window t - 1."""
    return SELECTORS[sel](w_tm1) * window_kernels(kind, w_tm1)


def _per_individual(panel, system, alpha, dagger=None):
    """Residual rows v_i of every individual (and its dagger residual)."""
    t = system.window_t
    # the full alpha vector; a dropped component sits only in removed rows
    named = dict(zip(system.col_labels, alpha))
    alphas = [named.get(c, 0.0) for c in alpha_labels(system.family)]
    rows, memo = [], {}
    for y in panel.y:
        key = y.tobytes()
        if key not in memo:
            w_t, w_tm1 = _windows(y, panel.t0, t)
            v = -_scalar_rows(system.family, system.row_ids, w_t, w_tm1, alphas)
            if dagger is not None:
                kind, sel, a, d, ratio = dagger
                b1, b2, b3, b4 = _dagger_kernels(w_tm1, kind, sel)
                v = np.concatenate(([-(a * b1 + b2) - (a * a * b3 + d * b4) * ratio], v))
            memo[key] = v
        rows.append(memo[key])
    return np.array(rows)


def _reference_vcov(v, x, n):
    s = v.T @ v / n
    vcov = np.linalg.inv(x.T @ np.linalg.inv(s) @ x) / n
    return (vcov + vcov.T) / 2.0


def _assert_cov_close(got, want):
    # covariances relative to the product of their two sds: an off-diagonal
    # entry near zero carries the rounding of its neighbours
    sd = np.sqrt(np.diag(want))
    gap = np.abs(got - want) / np.outer(sd, sd)
    assert gap.max() <= 1e-10, gap.max()


def _check_against_reference(panel, family, variant, t, two_step):
    st_t = aggregate(panel, t)
    if family == "C":
        system = build_system_c(st_t, variant)
    else:
        system = build_system(family, st_t, variant)
    alpha = solve(system)
    vcov = variance(system, alpha)
    v = _per_individual(panel, system, alpha)
    assert len(v) == panel.n
    _assert_cov_close(vcov, _reference_vcov(v, system.x_mat, panel.n))
    if not two_step:
        return

    est = TransformedEstimate(family=family, variant=variant, window_t=t,
                              n=int(system.cells.sum()),
                              col_labels=system.col_labels, alpha=alpha, vcov=vcov)
    two = two_step_dtd_tm1(est, system)
    kind, sel = ("theta", "-") if family == "A" else ("xi", "+")
    a, d = est.value("a"), est.value("d")
    hist, counts = np.unique(panel.y, axis=0, return_counts=True)
    b1, b2, b3, b4 = counts @ np.array([_dagger_kernels(_windows(y, panel.t0, t)[1], kind, sel)
                                        for y in hist]) / panel.n
    den = a * a * b3 + d * b4
    ratio = -(a * b1 + b2) / den
    m = len(alpha)
    x_dag = np.zeros((m + 1, m + 1))
    x_dag[0, 0] = den
    x_dag[1:, 1:] = system.x_mat
    v_dag = _per_individual(panel, system, alpha, (kind, sel, a, d, ratio))
    vcov_dag = _reference_vcov(v_dag, x_dag, panel.n)
    jac = np.array([-(b1 + 2.0 * ratio * a * b3) / den, -ratio * b4 / den])
    idx = [1 + est.index("a"), 1 + est.index("d")]
    var_ratio = vcov_dag[0, 0]
    corrected = var_ratio + 2.0 * jac @ vcov_dag[0, idx] + jac @ vcov_dag[np.ix_(idx, idx)] @ jac
    np.testing.assert_allclose(two.ratio, ratio, rtol=1e-12)
    np.testing.assert_allclose(two.var_ratio, var_ratio, rtol=1e-10, atol=0)
    np.testing.assert_allclose(two.var_ratio_corrected, corrected, rtol=1e-10, atol=0)


@pytest.mark.parametrize("spec, family, variant, two_step", [
    (SPEC_DUMMIES, "A", "minus-3-7", True),
    (SPEC_DUMMIES, "B", "minus-1-5", True),
    (SPEC_TREND, "C", "full", False),
])
def test_variances_match_per_individual_reference(spec, family, variant, two_step):
    # seven stored periods: two more than the window reads, so the
    # reference's own aggregate at window t-1 has all five of its periods
    panel = simulate_panel(spec, DgpConfig(n_individuals=200_000, n_periods=8,
                                           sigma_eta_sq=0.5, seed=2)).drop_prefix(1)
    assert panel.n_periods == 7
    _check_against_reference(panel, family, variant, 7, two_step)


@pytest.mark.parametrize("family, variant", [("A", "minus-3-7"), ("C", "full")])
def test_more_histories_than_rows_match_reference(family, variant):
    # 2**24 possible histories for 300 rows: only the window's five periods
    # are read
    rng = np.random.default_rng(31)
    panel = PanelData(y=rng.integers(0, 2, size=(300, 24)), ids=np.arange(300), t0=1)
    _check_against_reference(panel, family, variant, 20, two_step=False)


@pytest.mark.parametrize("spec, runs", [
    (SPEC_DUMMIES, [dict(family="A", variant="minus-3-7", two_step=True, wald="ab-dummies"),
                    dict(family="B", variant="minus-1-5", two_step=True)]),
    (SPEC_TREND, [dict(family="C", variant="full", wald="c-trend")]),
], ids=["dummies", "trend"])
def test_long_panel_estimates_like_its_window(spec, runs):
    # periods 4..8 of a simulated panel, relabelled as periods 66..70 of a
    # 70-period panel whose first 65 periods are noise
    sim = simulate_panel(spec, DgpConfig(n_individuals=200_000, n_periods=8,
                                         sigma_eta_sq=0.5, seed=2)).drop_prefix(3)
    noise = np.random.default_rng(5).integers(0, 2, size=(sim.n, 65))
    panel = PanelData(y=np.hstack([noise, sim.y]), t0=1)
    window = panel.drop_prefix(65)
    assert panel.n_periods == 70 and window.n_periods == 5
    for kwargs in runs:
        want = estimate_panel(window, window_t=69, **kwargs).to_dict()
        assert estimate_panel(panel, window_t=69, **kwargs).to_dict() == want


def test_zero_count_rows_change_nothing():
    # the panel's periods 4..8 as a history table over periods 1..8 whose
    # 224 histories with an outcome of 1 in periods 1..3 count zero
    panel = simulate_panel(SPEC_DUMMIES, DgpConfig(n_individuals=200_000, n_periods=8,
                                                   sigma_eta_sq=0.5, seed=2)).drop_prefix(3)
    codes = panel.y.astype(np.int64) @ (1 << np.arange(4, -1, -1))
    padded = np.zeros(256, dtype=np.int64)
    padded[:32] = np.bincount(codes, minlength=32)
    assert padded.sum() == panel.n
    for kwargs in (dict(family="A", variant="minus-3-7", two_step=True, wald="ab-dummies"),
                   dict(family="B", variant="minus-1-5", two_step=True)):
        want = estimate_panel(panel, window_t=7, **kwargs).to_dict()
        assert estimate_panel(padded, window_t=7, **kwargs).to_dict() == want
