import math

import numpy as np
import pytest

from panel_logit import (NonpositiveAlpha, NonpositivePhiHat,
                         SingularRestrictionCovariance, TimeTrendSpec,
                         TransformedEstimate, ZeroDenominator, aggregate,
                         alpha_from_spec, alpha_labels, chi2_sf,
                         corrected_ratio_variance, estimate_panel,
                         recover_original, simulate_histogram, simulate_panel,
                         two_step_dtd_tm1, wald_test)
from panel_logit import DgpConfig, TimeDummiesSpec
from panel_logit.aggregation import from_cells
from panel_logit.estimators import (SingularSystem, SingularWeight, _sandwich,
                                    build_system, solve)
from panel_logit.inference import (RESTRICTION_SETS, _basis,
                                   restriction_rows)
from panel_logit.kernels import exponents
from panel_logit.oracle import (population_estimate, population_system,
                                spec_with_steps)
from scalar_kernels import bar

ETA = ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))


def _estimate(family, labels, alpha, vcov=None, variant="minus-3-7", n=100):
    alpha = np.asarray(alpha, dtype=float)
    if vcov is None:
        vcov = np.zeros((len(alpha), len(alpha)))
    return TransformedEstimate(family=family, variant=variant, window_t=5, n=n,
                               col_labels=tuple(labels), alpha=alpha,
                               vcov=np.asarray(vcov, dtype=float))


LABELS6 = ("a", "b", "c", "d", "f", "g")


def test_recover_identity_point():
    est = _estimate("A", LABELS6, np.ones(6))
    orig = recover_original(est)
    assert orig.gamma.value == 0.0
    assert orig.dtd_t.value == 0.0
    assert orig.dtd_tp1.value == 0.0


def test_recover_exact_logs():
    alpha = np.ones(6)
    alpha[0] = math.exp(0.4)   # component a
    alpha[3] = math.exp(1.4)   # component d
    est = _estimate("A", LABELS6, alpha)
    orig = recover_original(est)
    assert orig.gamma.value == pytest.approx(1.0, abs=1e-12)
    assert orig.dtd_t.value == pytest.approx(0.4, abs=1e-12)
    assert orig.gamma_from == "d"


def test_recover_uses_e_when_d_absent():
    labels = ("a", "b", "c", "e", "f", "g")
    alpha = np.ones(6)
    alpha[0] = math.exp(0.4)
    alpha[3] = math.exp(0.4 - 1.0)  # e = a * exp(-gamma)
    est = _estimate("A", labels, alpha, variant="minus-1-5")
    orig = recover_original(est)
    assert orig.gamma.value == pytest.approx(1.0, abs=1e-12)
    assert orig.gamma_from == "e"


def test_recover_b_signs():
    spec = spec_with_steps(0.8, 0.3, -0.2)
    est = population_estimate("B", spec, 5, "minus-1-5")
    orig = recover_original(est)
    assert orig.gamma.value == pytest.approx(0.8, abs=1e-9)
    assert orig.dtd_t.value == pytest.approx(0.3, abs=1e-9)
    assert orig.dtd_tp1.value == pytest.approx(-0.2, abs=1e-9)


def test_recover_roundtrip_all_families_variants():
    spec = spec_with_steps(-0.6, 0.45, 0.2)
    for family in ("A", "B"):
        for variant in [f"minus-r:{r}" for r in (1, 4, 8)] + ["minus-3-7", "minus-1-5"]:
            est = population_estimate(family, spec, 5, variant)
            orig = recover_original(est)
            assert orig.gamma.value == pytest.approx(-0.6, abs=1e-8)
            assert orig.dtd_t.value == pytest.approx(0.45, abs=1e-8)
            assert orig.dtd_tp1.value == pytest.approx(0.2, abs=1e-8)
    trend = TimeTrendSpec(gamma=-0.6, phi_coef=0.25)
    est = population_estimate("C", trend, 5, "full")
    orig = recover_original(est)
    assert orig.gamma.value == pytest.approx(-0.6, abs=1e-8)
    assert orig.phi_coef.value == pytest.approx(0.25, abs=1e-8)


def test_ab_agree_on_population():
    spec = spec_with_steps(1.0, 0.2, -0.1)
    est_a = population_estimate("A", spec, 5, "minus-3-7")
    est_b = population_estimate("B", spec, 5, "minus-1-5")
    ga = recover_original(est_a).gamma.value
    gb = recover_original(est_b).gamma.value
    assert abs(ga - gb) <= 1e-8


def test_nonpositive_alpha_surfaces():
    alpha = np.ones(6)
    alpha[1] = -0.2
    est = _estimate("A", LABELS6, alpha)
    with pytest.raises(NonpositiveAlpha):
        recover_original(est)


def test_delta_method_matches_finite_differences():
    rng = np.random.default_rng(8)
    alpha = np.exp(rng.uniform(-0.5, 0.5, size=6))
    m = rng.normal(size=(6, 6))
    vcov = m @ m.T / 50.0
    est = _estimate("A", LABELS6, alpha, vcov=vcov)
    orig = recover_original(est)

    def transform(a):
        return np.array([math.log(a[3]) - math.log(a[0]),   # gamma
                         math.log(a[0]),                    # dtd_t
                         -math.log(a[1])])                  # dtd_tp1
    h = 1e-6
    jac = np.empty((3, 6))
    for k in range(6):
        up, dn = alpha.copy(), alpha.copy()
        up[k] += h
        dn[k] -= h
        jac[:, k] = (transform(up) - transform(dn)) / (2 * h)
    expected = jac @ vcov @ jac.T
    assert orig.gamma.se**2 == pytest.approx(expected[0, 0], rel=1e-6)
    assert orig.dtd_t.se**2 == pytest.approx(expected[1, 1], rel=1e-6)
    assert orig.dtd_tp1.se**2 == pytest.approx(expected[2, 2], rel=1e-6)


def test_delta_variances_nonnegative_for_psd_input():
    rng = np.random.default_rng(12)
    for _ in range(25):
        alpha = np.exp(rng.uniform(-1, 1, size=6))
        m = rng.normal(size=(6, 3))
        est = _estimate("A", LABELS6, alpha, vcov=m @ m.T)
        orig = recover_original(est)
        for p in (orig.gamma, orig.dtd_t, orig.dtd_tp1):
            assert p.se >= 0.0


# ---------------------------------------------------------------------------
# two-step


def test_two_step_population_value():
    spec = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
    t = 7
    for family, variant, step in (("A", "minus-3-7", 0.4),
                                  ("B", "minus-1-5", -0.4)):
        est = population_estimate(family, spec, t, variant)
        system = population_system(family, spec, t, *ETA, variant)
        # B's ratio is the inverse of the effect step
        assert two_step_dtd_tm1(est, system).ratio == pytest.approx(math.exp(step),
                                                                    abs=1e-8)


def test_two_step_ratio_refuses_other_families():
    for family in ("C", "Z"):
        est = _estimate(family, alpha_labels("C"), np.ones(8), variant="full")
        with pytest.raises(ValueError, match=f"families A and B, got '{family}'"):
            two_step_dtd_tm1(est, _dummy_system(est, np.ones(32)))


def test_corrected_variance_reduces_without_covariances():
    jac = np.array([0.7, -0.3])
    assert corrected_ratio_variance(0.9, np.zeros(2), np.zeros((2, 2)), jac) == 0.9
    # and the correction moves it when covariances are present
    cov = np.array([[0.2, 0.05], [0.05, 0.1]])
    out = corrected_ratio_variance(0.9, np.array([0.01, -0.02]), cov, jac)
    assert out != 0.9


def test_two_step_zero_denominator():
    # everyone in the all-zero window: every dagger average is zero
    est = _estimate("A", LABELS6, np.ones(6), n=0)
    with pytest.raises(ZeroDenominator):
        two_step_dtd_tm1(est, _dummy_system(est, np.eye(32)[0]))


def test_two_step_nonpositive_ratio():
    # one individual each with window-5 histories (0,0,0,1,0) and (0,1,0,0,0):
    # their window-4 means under '-' are theta_1 = 1/2, theta_2 = theta_3 = -1/2
    cells = np.zeros(32)
    cells[[0b00010, 0b01000]] = 1.0
    est = _estimate("A", LABELS6, [0.5, 1, 1, 1, 1, 1], n=2)
    with pytest.raises(NonpositivePhiHat):
        # ratio = -(a/2 - 1/2) / (-a^2/2) = -2 at a = 1/2; the variance
        # machinery is never reached
        two_step_dtd_tm1(est, _dummy_system(est, cells))


def _dummy_system(est, cells):
    from panel_logit.estimators import LinearSystem

    m = len(est.col_labels)
    return LinearSystem(family=est.family, variant=est.variant, window_t=5,
                        n=est.n, y_vec=np.zeros(m), x_mat=np.eye(m),
                        row_ids=tuple(range(1, m + 1)), col_labels=est.col_labels,
                        guards={}, cells=cells, y_cells=np.zeros((32, m)),
                        x_cells=np.zeros((32, m, m)))


def test_two_step_singular_dagger_moments_raise_singular_weight():
    # seven window-5 cells, one individual each: the first stage solves,
    # but residuals of seven cells with zero mean span at most six
    # dimensions, so the seven-row dagger moment matrix is singular
    cells = np.zeros(32)
    cells[[0b00000, 0b00010, 0b00100, 0b01001, 0b10011, 0b10101, 0b11100]] = 1.0
    system = build_system("A", from_cells(5, cells, n=7), "minus-3-7")
    alpha = solve(system)
    est = _estimate("A", system.col_labels, alpha, n=7)
    with pytest.raises(SingularWeight, match=r"numerically singular \(rcond="):
        two_step_dtd_tm1(est, system)


def test_sandwich_reports_rcond_of_singular_weight_and_design():
    panel = simulate_panel(TimeDummiesSpec(gamma=0.5, td=(0.0, 0.1, 0.2, 0.1, 0.0)),
                           DgpConfig(n_individuals=5_000, n_periods=5, seed=3))
    system = build_system("A", aggregate(panel, 4), "minus-3-7")
    v = system.y_cells - system.x_cells @ solve(system)
    # reported with the determinant guards, as ``solve`` reports them
    with pytest.raises(SingularSystem, match=r"weighted design is numerically "
                                             r"singular \(rcond=.*\); determinant "
                                             r"guards: corner_product="):
        _sandwich(system, v, np.zeros_like(system.x_mat))
    # a row whose residual vanishes in every cell has no weight
    v[:, 2] = 0.0
    with pytest.raises(SingularWeight, match=r"residual moment matrix is numerically "
                                             r"singular \(rcond="):
        _sandwich(system, v, system.x_mat)


def test_two_step_rejects_variant_without_d():
    est = _estimate("A", ("a", "b", "c", "e", "f", "g"), np.ones(6),
                    variant="minus-1-5")
    with pytest.raises(ValueError, match="drops component 'd'"):
        two_step_dtd_tm1(est, _dummy_system(est, np.ones(32)))


def test_two_step_end_to_end_matches_manual_ratio():
    # on a clean homogeneous sample the full two-step matches the point ratio
    spec = TimeDummiesSpec(gamma=0.8, td=(0.0, 0.1, -0.05, 0.2, 0.05, 0.15, 0.3, 0.1))
    panel = simulate_panel(spec, DgpConfig(n_individuals=120_000, n_periods=8,
                                           sigma_eta_sq=1.5, seed=2))
    res = estimate_panel(panel, "A", "minus-3-7", 6, two_step=True)
    a, d = res.transformed.value("a"), res.transformed.value("d")
    b1, b2, b3, b4 = (bar(aggregate(panel, 6), "theta", j, "-", back=1)
                      for j in range(1, 5))
    ratio = -(a * b1 + b2) / (a * a * b3 + d * b4)
    assert res.two_step.ratio == pytest.approx(ratio, rel=1e-12)
    assert res.original.dtd_tm1.value == pytest.approx(math.log(ratio), rel=1e-12)
    assert res.two_step.var_ratio_corrected != res.two_step.var_ratio
    assert res.original.dtd_tm1.se > 0.0


# ---------------------------------------------------------------------------
# Wald


# the restriction matrices as they were written out by hand before they were
# derived from the exponent tables; each derived set must span the same rows
LITERAL_ROWS = {
    "ab-dummies": np.array([
        [1, -1, -1, 0, 0, 0],
        [1, 1, 0, -1, -1, 0],
        [2, -1, 0, -1, 0, -1],
    ], dtype=np.float64),
    "c-trend": np.array([
        [-1, -1, 0, 0, 0, 0, 0, 0],
        [2, 0, -1, 0, 0, 0, 0, 0],
        [-2, 0, 0, -1, 0, 0, 0, 0],
        [2, 0, 0, 0, -1, -1, 0, 0],
        [-2, 0, 0, 0, 1, 0, -1, 0],
        [0, 0, 0, 0, -1, 0, 0, -1],
    ], dtype=np.float64),
    "ab-trend": np.array([
        [-1, -1, 0, 0, 0, 0],
        [2, 0, -1, 0, 0, 0],
        [0, 0, 0, -1, -1, 0],
        [3, 0, 0, -1, 0, -1],
    ], dtype=np.float64),
}
SET_FAMILIES = (("ab-dummies", "A"), ("ab-dummies", "B"), ("ab-trend", "A"),
                ("ab-trend", "B"), ("c-trend", "C"))


def _wald_statistic(est, rows):
    """The Wald statistic of ``est`` under explicit restriction rows."""
    ell = np.log(est.alpha)
    v_log = est.vcov / np.outer(est.alpha, est.alpha)
    gap = rows @ ell
    return float(gap @ np.linalg.solve(rows @ v_log @ rows.T, gap))


@pytest.mark.parametrize("name, family", SET_FAMILIES)
def test_restriction_rows_are_left_null_space(name, family):
    labels, model = RESTRICTION_SETS[name]
    m = exponents(family, model)[[alpha_labels(family).index(c) for c in labels]]
    rows = restriction_rows(family, name)
    assert not (rows @ m).any()
    rank = np.linalg.matrix_rank(rows)
    assert rank == len(rows) == len(labels) - np.linalg.matrix_rank(m)
    literal = LITERAL_ROWS[name]
    assert np.linalg.matrix_rank(literal) == rank
    assert np.linalg.matrix_rank(np.vstack((rows, literal))) == rank


@pytest.mark.parametrize("family, model, has_d", [
    ("A", "dummies", True), ("A", "dummies", False), ("B", "dummies", True),
    ("B", "dummies", False), ("A", "trend", True), ("B", "trend", True),
    ("C", "trend", True)])
def test_basis_exponents_are_unimodular(family, model, has_d):
    basis, inv = _basis(family, model, has_d)
    m_s = exponents(family, model)[[alpha_labels(family).index(c) for c in basis]]
    assert round(abs(np.linalg.det(m_s))) == 1
    assert inv.dtype == np.int64
    assert (m_s @ inv == np.eye(len(basis), dtype=np.int64)).all()


def test_restrictions_annihilate_true_logs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        gamma, s_t, s_tp1 = rng.uniform(-1, 1, 3)
        dummies = spec_with_steps(gamma, s_t, s_tp1)
        trend = TimeTrendSpec(gamma=gamma, phi_coef=s_t)
        for name, family in SET_FAMILIES:
            labels, model = RESTRICTION_SETS[name]
            full = alpha_from_spec(family, trend if model == "trend" else dummies, 5)
            lab = alpha_labels(family)
            ell = np.log([full[lab.index(c)] for c in labels])
            assert np.allclose(restriction_rows(family, name) @ ell, 0.0, atol=1e-12)


def test_wald_matches_literal_rows_on_samples():
    dummies = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
    trend = TimeTrendSpec(gamma=1.0, phi_coef=0.3)
    runs = {"ab-dummies": ((dummies, "A", "minus-3-7"), (dummies, "B", "minus-1-5")),
            "ab-trend": ((trend, "A", "minus-3-7"), (trend, "B", "minus-1-5")),
            "c-trend": ((trend, "C", "full"),)}
    checked = 0
    for seed in range(4):
        for name, cases in runs.items():
            for spec, family, variant in cases:
                panel = simulate_histogram(spec, DgpConfig(
                    n_individuals=1_000_000, n_periods=8, sigma_eta_sq=0.5,
                    seed=seed)).drop_prefix(3)
                try:
                    res = estimate_panel(panel, family, variant, 7, wald=name)
                except NonpositiveAlpha:
                    continue
                expected = _wald_statistic(res.transformed, LITERAL_ROWS[name])
                assert res.wald.statistic == pytest.approx(expected, rel=1e-12)
                assert res.wald.df == len(LITERAL_ROWS[name])
                checked += 1
    assert checked >= 12


def test_wald_zero_at_truth():
    spec = spec_with_steps(0.9, 0.3, -0.15)
    full = alpha_from_spec("A", spec, 5)
    lab = alpha_labels("A")
    alpha = [full[lab.index(c)] for c in LABELS6]
    rng = np.random.default_rng(2)
    m = rng.normal(size=(6, 6))
    est = _estimate("A", LABELS6, alpha, vcov=m @ m.T / 100)
    result = wald_test(est, "ab-dummies")
    assert result.statistic == pytest.approx(0.0, abs=1e-18)
    assert result.p_value == 1.0
    assert result.df == 3


def test_wald_row_order_invariance():
    rng = np.random.default_rng(9)
    alpha = np.exp(rng.uniform(-0.3, 0.3, 6))
    m = rng.normal(size=(6, 6))
    est = _estimate("A", LABELS6, alpha, vcov=m @ m.T / 100)
    base = wald_test(est, "ab-dummies").statistic
    permuted = _wald_statistic(est, LITERAL_ROWS["ab-dummies"][::-1])
    assert permuted == pytest.approx(base, rel=1e-10)


def test_wald_errors():
    est = _estimate("A", LABELS6, np.ones(6))
    with pytest.raises(SingularRestrictionCovariance, match=r"\(rcond=0\.000e\+00\)"):
        wald_test(est, "ab-dummies")  # zero covariance
    with pytest.raises(ValueError, match="unknown restriction set"):
        wald_test(est, "nope")
    est7 = _estimate("A", ("a", "b", "c", "d", "e", "f", "g"), np.ones(7),
                     variant="minus-r:1")
    with pytest.raises(ValueError, match="expects components"):
        wald_test(est7, "ab-dummies")
    bad = _estimate("A", LABELS6, np.array([1, -1, 1, 1, 1, 1.0]),
                    vcov=np.eye(6))
    with pytest.raises(NonpositiveAlpha):
        wald_test(bad, "ab-dummies")


def test_chi2_sf_against_scipy_distribution():
    from scipy.stats import chi2

    for df in (1, 3, 6):
        for x in (0.0, 0.5, 2.0, 7.81, 12.59, 40.0):
            assert chi2_sf(x, df) == pytest.approx(chi2.sf(x, df), rel=1e-12, abs=1e-300)
    assert chi2_sf(-1.0, 3) == 1.0
