import sys

import numpy as np
import pytest

from panel_logit import (PanelData, SingularSystem, SingularWeight, aggregate,
                         build_system, build_system_c, parse_variant, solve,
                         variance)
from panel_logit.estimators import LinearSystem, _checked_inverse, failed_guards
from panel_logit.oracle import population_aggregates, spec_with_steps
from scalar_kernels import bar


def _random_panel(n=400, t_periods=6, seed=2):
    rng = np.random.default_rng(seed)
    return PanelData(y=rng.integers(0, 2, size=(n, t_periods)).astype(np.int8),
                     ids=np.arange(n), t0=1)


def _expected_system_a(stats):
    """The stacked layout written out literally, independent of the row table."""
    th = lambda j, s: bar(stats, "theta", j, s)
    xi = lambda j, s: bar(stats, "xi", j, s)
    y = np.array([-th(1, "-"), -th(1, "+"), -xi(4, "+"), -xi(4, "-"),
                  -th(1, "-+"), -th(1, "++"), -xi(4, "++"), -xi(4, "-+")])
    x = np.array([
        [0, th(2, "-"), th(3, "-"), th(4, "-"), 0, 0, 0],
        [th(4, "+"), th(2, "+"), 0, 0, 0, 0, th(3, "+")],
        [0, 0, 0, 0, xi(1, "+"), xi(3, "+"), xi(2, "+")],
        [xi(1, "-"), 0, xi(2, "-"), 0, 0, xi(3, "-"), 0],
        [0, th(2, "-+"), th(3, "-+"), th(4, "-+"), 0, 0, 0],
        [th(4, "++"), th(2, "++"), 0, 0, 0, 0, th(3, "++")],
        [0, 0, 0, 0, xi(1, "++"), xi(3, "++"), xi(2, "++")],
        [xi(1, "-+"), 0, xi(2, "-+"), 0, 0, xi(3, "-+"), 0],
    ])
    return y, x


def _expected_system_b(stats):
    th = lambda j, s: bar(stats, "theta", j, s)
    xi = lambda j, s: bar(stats, "xi", j, s)
    y = np.array([-th(4, "-"), -th(4, "+"), -xi(1, "+"), -xi(1, "-"),
                  -th(4, "-+"), -th(4, "++"), -xi(1, "++"), -xi(1, "-+")])
    x = np.array([
        [0, 0, 0, 0, th(1, "-"), th(3, "-"), th(2, "-")],
        [th(1, "+"), 0, th(2, "+"), 0, 0, th(3, "+"), 0],
        [0, xi(2, "+"), xi(3, "+"), xi(4, "+"), 0, 0, 0],
        [xi(4, "-"), xi(2, "-"), 0, 0, 0, 0, xi(3, "-")],
        [0, 0, 0, 0, th(1, "-+"), th(3, "-+"), th(2, "-+")],
        [th(1, "++"), 0, th(2, "++"), 0, 0, th(3, "++"), 0],
        [0, xi(2, "++"), xi(3, "++"), xi(4, "++"), 0, 0, 0],
        [xi(4, "-+"), xi(2, "-+"), 0, 0, 0, 0, xi(3, "-+")],
    ])
    return y, x


def _expected_system_c(st_t, st_p):
    rows_y, rows_x = [], []
    for st in (st_t, st_p):
        th = lambda j, s: bar(st, "theta", j, s)
        xi = lambda j, s: bar(st, "xi", j, s)
        rows_y += [-th(1, "-"), -th(4, "+"), -xi(1, "+"), -xi(4, "-")]
        rows_x += [
            [0, th(2, "-"), th(3, "-"), 0, th(4, "-"), 0, 0, 0],
            [0, th(1, "+"), 0, th(2, "+"), 0, th(3, "+"), 0, 0],
            [xi(2, "+"), 0, 0, xi(3, "+"), 0, 0, xi(4, "+"), 0],
            [xi(1, "-"), 0, xi(2, "-"), 0, 0, 0, 0, xi(3, "-")],
        ]
    return np.array(rows_y), np.array(rows_x)


@pytest.mark.parametrize("family,builder", [("A", _expected_system_a),
                                            ("B", _expected_system_b)])
def test_placement_matches_literal_layout(family, builder):
    stats = aggregate(_random_panel(), 4)
    y_exp, x_exp = builder(stats)
    for r in range(1, 9):
        system = build_system(family, stats, f"minus-r:{r}")
        keep = [k for k in range(8) if k != r - 1]
        assert np.array_equal(system.y_vec, y_exp[keep])
        assert np.array_equal(system.x_mat, x_exp[keep])


def test_placement_c_matches_literal_layout():
    panel = _random_panel(n=500, t_periods=7, seed=4)
    # the window-4 rows come from window 5's cells; the expected ones from
    # an aggregate of their own
    st_t, st_p = aggregate(panel, 5), aggregate(panel, 4)
    system = build_system_c(st_t)
    y_exp, x_exp = _expected_system_c(st_t, st_p)
    assert np.array_equal(system.y_vec, y_exp)
    assert np.array_equal(system.x_mat, x_exp)
    assert system.col_labels == ("a", "b", "c", "d", "e", "f", "g", "h")


def test_paired_removals_drop_expected_column():
    stats = aggregate(_random_panel(), 4)
    sys_a37 = build_system("A", stats, "minus-3-7")
    assert sys_a37.x_mat.shape == (6, 6)
    assert sys_a37.col_labels == ("a", "b", "c", "d", "f", "g")
    sys_a15 = build_system("A", stats, "minus-1-5")
    assert sys_a15.col_labels == ("a", "b", "c", "e", "f", "g")
    sys_b15 = build_system("B", stats, "minus-1-5")
    assert sys_b15.col_labels == ("a", "b", "c", "d", "f", "g")
    sys_b37 = build_system("B", stats, "minus-3-7")
    assert sys_b37.col_labels == ("a", "b", "c", "e", "f", "g")


def test_minus_r_is_seven_by_seven():
    stats = aggregate(_random_panel(), 4)
    system = build_system("A", stats, "minus-r:5")
    assert system.x_mat.shape == (7, 7)
    assert system.row_ids == (1, 2, 3, 4, 6, 7, 8)


def test_invalid_variant_family_combinations():
    stats = aggregate(_random_panel(), 4)
    with pytest.raises(ValueError):
        build_system("A", stats, "full")
    with pytest.raises(ValueError):
        build_system("C", stats, "full")
    panel = _random_panel(n=100, t_periods=7)
    with pytest.raises(ValueError):
        build_system_c(aggregate(panel, 5), "minus-3-7")
    with pytest.raises(ValueError):
        parse_variant("minus-2-6")
    # the row is ASCII digits: an Arabic-Indic three is no row number
    for name in ("minus-r:x", "minus-r:", "minus-r:-1", "minus-r:\u0663"):
        with pytest.raises(ValueError, match=f"unknown variant '{name}'"):
            parse_variant(name)


def test_parse_variant_gives_canonical_name_and_removed_rows():
    assert parse_variant("full") == ("full", ())
    assert parse_variant("minus-3-7") == ("minus-3-7", (3, 7))
    assert parse_variant("minus-1-5") == ("minus-1-5", (1, 5))
    assert parse_variant("minus-r:03") == ("minus-r:3", (3,))
    for row in ("0", "9", "09"):
        with pytest.raises(ValueError, match=f"row to remove must be 1..8, got {int(row)}$"):
            parse_variant(f"minus-r:{row}")


def test_parse_variant_row_digits_past_leading_zeros():
    # leading zeros do not count toward the digits int() converts
    over = sys.get_int_max_str_digits() + 1
    assert parse_variant("minus-r:" + "0" * over + "3") == ("minus-r:3", (3,))
    name = "minus-r:" + "1" * over
    with pytest.raises(ValueError) as err:
        parse_variant(name)
    assert str(err.value) == (f"variant {name!r} has {over} significant digits, "
                              "more than int() converts")
    for row in ("+3", "-3", "+03", " 3", "3 ", "٣"):
        with pytest.raises(ValueError, match="^unknown variant"):
            parse_variant("minus-r:" + row)


@pytest.mark.parametrize("family, row", [("A", 3), ("B", 1)])
def test_a_leading_zero_builds_the_canonical_system(family, row):
    # the two guarded one-row variants: a name passed through uncanonicalized
    # would miss its guards
    stats = aggregate(_random_panel(), 4)
    padded = build_system(family, stats, f"minus-r:0{row}")
    canonical = build_system(family, stats, f"minus-r:{row}")
    assert padded.variant == canonical.variant == f"minus-r:{row}"
    assert set(padded.guards) == {"corner_product", "block_determinant", "pivot_bar"}
    assert padded.guards == canonical.guards
    assert (padded.row_ids, padded.col_labels) == (canonical.row_ids, canonical.col_labels)
    for name in ("cells", "y_cells", "x_cells", "y_vec", "x_mat"):
        assert np.array_equal(getattr(padded, name), getattr(canonical, name)), name


def test_c_refuses_window_without_pre_window_period():
    # window 4 of periods 2..6 lacks period 1; window 5 holds its rows at
    # window 4 as well
    panel = PanelData(y=_random_panel(n=100, t_periods=5).y, ids=np.arange(100), t0=2)
    with pytest.raises(ValueError, match="window 4 needs period 1"):
        aggregate(panel, 4)
    build_system_c(aggregate(panel, 5))


def test_degenerate_panel_zero_rows_then_singular():
    # nobody has the pre-window outcome set: every '+'-selected row is zero
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, size=(200, 5)).astype(np.int8)
    y[:, 1] = 0  # y at t-2 for window t=4
    panel = PanelData(y=y, ids=np.arange(200), t0=1)
    stats = aggregate(panel, 4)
    y_exp, x_exp = _expected_system_a(stats)
    for r in (1, 2, 5, 6):  # rows 2,3,6,7 are the '+'-selected ones (0-based 1,2,5,6)
        assert y_exp[r] == 0.0
        assert np.all(x_exp[r] == 0.0)
    system = build_system("A", stats, "minus-r:8")
    with pytest.raises(SingularSystem):
        solve(system)


def test_solve_identity_system():
    v = np.array([1.0, 2.0, 3.0])
    system = LinearSystem(family="A", variant="minus-r:1",
                          window_t=4, y_vec=v, x_mat=np.eye(3),
                          row_ids=(1, 2, 3), col_labels=("a", "b", "c"), guards={},
                          cells=np.zeros(32), y_cells=np.zeros((32, 3)),
                          x_cells=np.zeros((32, 3, 3)))
    assert np.allclose(solve(system), v)


def test_population_solve_recovers_truth():
    spec = spec_with_steps(1.0, 0.2, -0.1)
    stats = population_aggregates(spec, 5, (-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))
    system = build_system("A", stats, "minus-3-7")
    from panel_logit import alpha_from_spec, alpha_labels

    alpha = solve(system)
    truth = alpha_from_spec("A", spec, 5)
    labels = alpha_labels("A")
    expected = [truth[labels.index(c)] for c in system.col_labels]
    assert np.allclose(alpha, expected, atol=1e-10)


def test_population_locus_raises_with_guard_diagnostics():
    # state dependence and the second effect step both zero: the six-row
    # system is rank deficient in the population
    spec = spec_with_steps(0.0, 0.2, 0.0)
    stats = population_aggregates(spec, 5, (-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))
    system = build_system("A", stats, "minus-3-7")
    with pytest.raises(SingularSystem) as err:
        solve(system)
    assert "block_determinant" in failed_guards(err.value.guards)


def test_variance_scales_inversely_with_duplication():
    panel = _random_panel(n=300, t_periods=6, seed=13)
    stats = aggregate(panel, 4)
    system = build_system("A", stats, "minus-3-7")
    alpha = solve(system)
    v1 = variance(system, alpha)

    doubled = PanelData(y=np.vstack([panel.y, panel.y]),
                        ids=np.arange(2 * panel.n), t0=1)
    stats2 = aggregate(doubled, 4)
    system2 = build_system("A", stats2, "minus-3-7")
    alpha2 = solve(system2)
    assert np.allclose(alpha2, alpha, atol=1e-12)
    v2 = variance(system2, alpha2)
    assert np.allclose(v2, v1 / 2.0, rtol=1e-10)


def test_identical_individuals_give_singular_weight():
    row = np.array([1, 0, 1, 1, 0], dtype=np.int8)
    panel = PanelData(y=np.tile(row, (50, 1)), ids=np.arange(50), t0=1)
    stats = aggregate(panel, 4)
    system = build_system("A", stats, "minus-3-7")
    with pytest.raises(SingularWeight, match=r"singular \(rcond="):
        variance(system, np.ones(6))


def test_point_estimate_untouched_by_variance():
    panel = _random_panel(n=350, t_periods=6, seed=15)
    stats = aggregate(panel, 4)
    system = build_system("A", stats, "minus-r:3")
    before = solve(system)
    variance(system, before)
    assert np.array_equal(solve(system), before)


def test_vcov_symmetric_psd():
    panel = _random_panel(n=600, t_periods=6, seed=16)
    stats = aggregate(panel, 4)
    system = build_system("B", stats, "minus-r:1")
    alpha = solve(system)
    v = variance(system, alpha)
    assert np.array_equal(v, v.T)
    eigvals = np.linalg.eigvalsh(v)
    assert eigvals.min() >= -1e-10 * np.trace(v)


def test_checked_inverse_reports_the_exact_rcond():
    rng = np.random.default_rng(19)
    for m in range(1, 10):
        a = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-3, 3)
        inv, rcond = _checked_inverse(a, SingularSystem, "matrix")
        assert np.array_equal(inv, np.linalg.inv(a))
        assert rcond == 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(inv, 1))


@pytest.mark.parametrize("error", [SingularSystem, SingularWeight])
def test_checked_inverse_refuses_below_the_guard_with_its_error(error):
    with pytest.raises(error, match=r"^diagonal is numerically singular \(rcond=1\.000e-11\)$"):
        _checked_inverse(np.diag([1.0, 1e-11, 1.0]), error, "diagonal")
    assert _checked_inverse(np.diag([1.0, 1e-9, 1.0]), error, "diagonal")[1] == pytest.approx(1e-9)
    with pytest.raises(error, match=r"^ones is numerically singular \(rcond=0\.000e\+00\)$"):
        _checked_inverse(np.ones((3, 3)), error, "ones")
