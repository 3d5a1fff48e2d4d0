"""Variances on the history table against a per-individual reference.

The reference below forms the residual second moments the textbook way,
``S = mean_i v_i v_i'`` over every individual of the panel.  Each
individual's stacked moment row ``(y_i, X_i)`` is the system built from an
aggregate of that individual alone, so the reference shares only the public
layout with the code under test, not its history table.
"""

import numpy as np
import pytest

from panel_logit import (DgpConfig, PanelData, TimeDummiesSpec, TimeTrendSpec,
                         aggregate, build_system, build_system_c, estimate_panel,
                         parse_variant, simulate_panel, solve, two_step_dtd_tm1,
                         variance)
from panel_logit.estimators import TransformedEstimate

SPEC_DUMMIES = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
SPEC_TREND = TimeTrendSpec(gamma=1.0, phi_coef=0.3)


def _build(family, variant, st_t, st_tm1):
    if family == "C":
        return build_system_c(st_t, st_tm1, variant)
    return build_system(family, st_t, variant)


def _per_individual(panel, family, variant, t, alpha, dagger=None):
    """Residual rows v_i of every individual (and its dagger residual)."""
    rows, memo = [], {}
    for y in panel.y:
        key = y.tobytes()
        if key not in memo:
            one = PanelData(y=y[None, :], ids=np.zeros(1), t0=panel.t0)
            st_t, st_tm1 = aggregate(one, t), aggregate(one, t - 1)
            system = _build(family, variant, st_t, st_tm1)
            v = system.y_vec - system.x_mat @ alpha
            if dagger is not None:
                kind, sel, a, d, ratio = dagger
                b1, b2, b3, b4 = (st_tm1.bar(kind, j, sel) for j in range(1, 5))
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
    variant = parse_variant(variant)
    st_t, st_tm1 = aggregate(panel, t), aggregate(panel, t - 1)
    for name in ("codes", "counts"):
        assert np.array_equal(getattr(st_t.summands, name), getattr(st_tm1.summands, name))
    system = _build(family, variant, st_t, st_tm1)
    alpha = solve(system)
    vcov = variance(system, alpha, st_t, st_tm1 if family == "C" else None)
    v = _per_individual(panel, family, variant, t, alpha)
    assert len(v) == panel.n_rows
    _assert_cov_close(vcov, _reference_vcov(v, system.x_mat, panel.n))
    if not two_step:
        return

    est = TransformedEstimate(family=family, variant=variant, window_t=t, n=system.n,
                              col_labels=system.col_labels, alpha=alpha, vcov=vcov)
    two = two_step_dtd_tm1(est, system, st_t, st_tm1)
    kind, sel = ("theta", "-") if family == "A" else ("xi", "+")
    a, d = est.value("a"), est.value("d")
    b1, b2, b3, b4 = (st_tm1.bar(kind, j, sel) for j in range(1, 5))
    den = a * a * b3 + d * b4
    ratio = -(a * b1 + b2) / den
    m = len(alpha)
    x_dag = np.zeros((m + 1, m + 1))
    x_dag[0, 0] = den
    x_dag[1:, 1:] = system.x_mat
    v_dag = _per_individual(panel, family, variant, t, alpha, (kind, sel, a, d, ratio))
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
    # seven stored periods: histories span several windows, and the window
    # before t is interacted as well
    panel = simulate_panel(spec, DgpConfig(n_individuals=200_000, n_periods=8,
                                           sigma_eta_sq=0.5, seed=2)).drop_prefix(1)
    assert panel.n_periods == 7
    _check_against_reference(panel, family, variant, 7, two_step)


@pytest.mark.parametrize("family, variant", [("A", "minus-3-7"), ("C", "full")])
def test_more_histories_than_rows_match_reference(family, variant):
    # 2**24 possible histories for 300 rows: the table is built from the
    # distinct codes present
    rng = np.random.default_rng(31)
    panel = PanelData(y=rng.integers(0, 2, size=(300, 24)), ids=np.arange(300), t0=1)
    _check_against_reference(panel, family, variant, 20, two_step=False)


def test_more_than_62_periods_refused():
    panel = PanelData(y=np.zeros((4, 63), dtype=np.int8), ids=np.arange(4), t0=1)
    with pytest.raises(ValueError, match="at most 62 periods"):
        aggregate(panel, 10)
    aggregate(panel.drop_prefix(1), 10)


def test_zero_count_rows_change_nothing():
    panel = simulate_panel(SPEC_DUMMIES, DgpConfig(n_individuals=200_000, n_periods=8,
                                                   sigma_eta_sq=0.5, seed=2)).drop_prefix(3)
    y, counts = np.unique(panel.y, axis=0, return_counts=True)
    rng = np.random.default_rng(12)
    extra = rng.integers(0, 2, size=(40, panel.n_periods))
    dense = PanelData(y=y, ids=np.arange(len(y)), t0=panel.t0, counts=counts)
    padded = PanelData(y=np.vstack([extra, y, extra]), ids=np.arange(len(y) + 80),
                       t0=panel.t0, counts=np.concatenate([np.zeros(40, int), counts,
                                                           np.zeros(40, int)]))
    assert padded.n == dense.n
    for kwargs in (dict(family="A", variant="minus-3-7", two_step=True, wald="ab-dummies"),
                   dict(family="B", variant="minus-1-5", two_step=True)):
        want = estimate_panel(dense, window_t=7, **kwargs).to_dict()
        assert estimate_panel(padded, window_t=7, **kwargs).to_dict() == want
