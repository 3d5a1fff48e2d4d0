import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_logit import (TimeTrendSpec, alpha_from_spec, alpha_labels,
                         alpha_values, all_windows, gh_coefficients, hbar_u,
                         hbar_upsilon)
from panel_logit.kernels import (DAGGER_CELLS, EXPONENTS, ROW_TABLE, exponents,
                                 row_cells, scaled_hbar_row)
from panel_logit.oracle import spec_with_steps
from scalar_kernels import (SELECTORS, theta_kernels, transformed_moment_row,
                            window_kernels, xi_kernels)


def test_theta_examples():
    assert theta_kernels((0, 0, 0, 1, 0)).tolist() == [1, 0, 0, 0]
    assert theta_kernels((0, 0, 1, 1, 1)).tolist() == [0, 0, 0, 0]
    assert theta_kernels((0, 0, 1, 0, 1)).tolist() == [0, 0, 0, -1]


def test_xi_examples():
    assert xi_kernels((0, 0, 1, 1, 0)).tolist() == [-1, 1, 0, 0]
    assert xi_kernels((0, 0, 0, 1, 1)).tolist() == [0, 0, 1, 0]
    assert xi_kernels((0, 0, 1, 1, 1)).tolist() == [0, 0, 0, 0]


def test_kernels_only_read_last_three_entries():
    for w in all_windows():
        flipped = (1 - w[0], 1 - w[1]) + w[2:]
        assert np.array_equal(theta_kernels(w), theta_kernels(flipped))
        assert np.array_equal(xi_kernels(w), xi_kernels(flipped))


def test_kernel_range():
    for w in all_windows():
        assert set(theta_kernels(w)) <= {-1, 0, 1}
        assert set(xi_kernels(w)) <= {-1, 0, 1}


def test_gh_coefficients_bounds_and_equality_at_zero_delta():
    rng = np.random.default_rng(1)
    for _ in range(100):
        delta = math.exp(rng.uniform(-2, 2)) - 1
        pt, pt1 = np.exp(rng.uniform(-1, 1, 2))
        c = gh_coefficients(delta, pt, pt1)
        for v in (c.psi, c.phi_big, c.psi_star, c.phi_big_star):
            assert -1 < v < 1
    c = gh_coefficients(0.0, 1.3, 0.7)
    assert c.psi == c.phi_big
    assert c.psi_star == c.phi_big_star


def test_hbar_rejects_nonpositive_steps():
    with pytest.raises(ValueError):
        hbar_u((0, 0, 0, 0, 0), 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        hbar_upsilon((0, 0, 0, 0, 0), 0.0, 1.0, 0.0)


def test_hbar_u_hand_case():
    # with delta = 0 and unit steps the mixing weights vanish, so the value
    # reduces to the base form minus the lagged outcome
    assert hbar_u((0, 0, 1, 1, 0), 0.0, 1.0, 1.0) == 0.0
    assert hbar_u((0, 0, 1, 1, 1), 0.0, 1.0, 1.0) == 0.0


def test_scaling_identity_row1_exact():
    # row A1 equals its rescaled conditional form on every window
    delta, pt, pt1 = math.exp(0.7) - 1, math.exp(0.25), math.exp(-0.4)
    alphas = alpha_values("A", delta, pt, pt1)
    for w in all_windows():
        lhs = transformed_moment_row("A", 1, w, alphas)
        rhs = scaled_hbar_row("A", 1, w, delta, pt, pt1)
        assert lhs == pytest.approx(rhs, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(-2, 2), s_t=st.floats(-1, 1), s_tp1=st.floats(-1, 1))
def test_all_rows_match_scaled_forms(gamma, s_t, s_tp1):
    delta = math.exp(gamma) - 1
    pt, pt1 = math.exp(s_t), math.exp(s_tp1)
    for family, p2, p3 in (("A", pt, pt1), ("B", pt, pt1), ("C", pt, pt)):
        alphas = alpha_values(family, delta, p2, p3)
        for which in range(1, 5):
            for w in all_windows():
                a = transformed_moment_row(family, which, w, alphas)
                b = scaled_hbar_row(family, which, w, delta, p2, p3)
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_row_selector_examples():
    spec = spec_with_steps(0.7, 0.25, -0.4)
    a = alpha_from_spec("A", spec, 5)
    b = alpha_from_spec("B", spec, 5)
    for w in all_windows():
        if w[1] == 0:  # pre-window outcome zero kills the '+'-selected rows
            assert transformed_moment_row("A", 3, w, a) == 0.0
        if w[1] == 1:
            assert transformed_moment_row("B", 1, w, b) == 0.0


def test_row_example_family_c():
    alphas = np.ones(8)
    alphas[[1, 2, 4]] = 2.0  # components b, c, e
    assert transformed_moment_row("C", 1, (0, 0, 0, 1, 0), alphas) == 1.0


def test_alpha_identity_point():
    assert np.allclose(alpha_values("A", 0.0, 1.0, 1.0), 1.0)
    assert np.allclose(alpha_values("B", 0.0, 1.0, 1.0), 1.0)
    assert np.allclose(alpha_values("C", 0.0, 1.0, 1.0), 1.0)


def _alpha_products(family, delta, phi_t, phi_tp1):
    # the closed-form products of the paper, as they were written out
    # before they were derived from the exponent tables
    d1 = delta + 1.0
    if family == "A":
        vals = (phi_t, 1.0 / phi_tp1, phi_t * phi_tp1, phi_t * d1,
                phi_t / d1, 1.0 / (phi_tp1 * d1), phi_t * phi_tp1 / d1)
    elif family == "B":
        vals = (1.0 / phi_t, phi_tp1, 1.0 / (phi_t * phi_tp1), d1 / phi_t,
                1.0 / (phi_t * d1), phi_tp1 / d1, 1.0 / (phi_t * phi_tp1 * d1))
    else:
        p = phi_t
        vals = (p, 1.0 / p, p * p, 1.0 / (p * p), p * d1, p / d1,
                d1 / p, 1.0 / (p * d1))
    return np.array(vals)


def test_alpha_values_match_closed_form_products():
    # exp(M @ log(...)) rounds differently from the products; 4 ulp of the
    # value bounds the difference
    ulp = np.finfo(np.float64).eps
    rng = np.random.default_rng(17)
    for _ in range(2000):
        delta = math.exp(rng.uniform(-2.0, 2.0)) - 1.0
        phi_t, phi_tp1 = np.exp(rng.uniform(-1.0, 1.0, size=2))
        for family, p2, p3 in (("A", phi_t, phi_tp1), ("B", phi_t, phi_tp1),
                               ("C", phi_t, phi_t)):
            old = _alpha_products(family, delta, p2, p3)
            new = alpha_values(family, delta, p2, p3)
            assert np.all(np.abs(new - old) <= 4 * ulp * np.abs(old))


def test_exponent_tables():
    a, b, c = EXPONENTS["A"], EXPONENTS["B"], EXPONENTS["C"]
    assert (b == a * [1, -1, -1]).all()
    assert not c[:, 2].any()
    for family in EXPONENTS:
        assert len(EXPONENTS[family]) == len(alpha_labels(family))
        trend = exponents(family, "trend")
        assert (trend == np.column_stack((EXPONENTS[family][:, 0],
                                          EXPONENTS[family][:, 1:].sum(axis=1)))).all()
    assert (exponents("C", "trend") == c[:, :2]).all()
    with pytest.raises(ValueError, match="unknown model"):
        exponents("A", "quadratic")
    with pytest.raises(ValueError, match="unknown family"):
        alpha_labels("Z")


def test_alpha_ratios():
    spec = spec_with_steps(1.0, 0.4, -0.1)
    a = alpha_from_spec("A", spec, 5)
    labels = alpha_labels("A")
    assert a[labels.index("d")] / a[labels.index("a")] == pytest.approx(math.e, rel=1e-12)

    trend = TimeTrendSpec(gamma=1.0, phi_coef=0.3)
    c = alpha_from_spec("C", trend, 5)
    lc = alpha_labels("C")
    assert c[lc.index("e")] * c[lc.index("h")] == pytest.approx(1.0, rel=1e-12)


def test_alpha_from_spec_rejects_c_on_uneven_steps():
    spec = spec_with_steps(0.5, 0.3, -0.2)
    with pytest.raises(ValueError):
        alpha_from_spec("C", spec, 5)


def test_row_table_unit_coefficient_present():
    # every row moves exactly one unit-weight kernel to the left-hand side
    for family, rows in ROW_TABLE.items():
        for kind, sel, coeffs in rows:
            assert coeffs.count("1") == 1
            assert kind in ("theta", "xi")
            assert sel in ("-", "+")


@pytest.mark.parametrize("family, kind, sel", [("A", "theta", "-"), ("B", "xi", "+")])
def test_dagger_cells_are_the_scalar_kernels_at_window_t_minus_1(family, kind, sel):
    # window t - 1 of a cell is its first four periods, after a y_{t-4} no
    # dagger kernel reads
    for code, w in enumerate(all_windows()):
        w_tm1 = (0,) + w[:4]
        want = SELECTORS[sel](w_tm1) * window_kernels(kind, w_tm1)
        assert DAGGER_CELLS[family][code].tolist() == want.tolist(), code


def test_cell_tables_are_c_ordered_read_only_float64_without_negative_zero():
    # a product with the population's probabilities adds cells in memory
    # order, and a mean over signed zeros alone would print as -0.0
    tables = [*row_cells("A"), *row_cells("B"), *row_cells("C"), *DAGGER_CELLS.values()]
    for table in tables:
        assert table.dtype == np.float64
        assert table.flags.c_contiguous and not table.flags.writeable
        assert np.array_equal(np.signbit(table), table < 0)
    with pytest.raises(ValueError, match="unknown family 'Z'"):
        row_cells("Z")
