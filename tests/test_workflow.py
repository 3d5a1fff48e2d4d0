import sys
import tracemalloc
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_logit import (DgpConfig, EstimationError, EstimatorRun, PanelData,
                         TimeDummiesSpec, TimeTrendSpec, TransformedEstimate,
                         aggregate, estimate_panel, population_system,
                         simulate_histogram, simulate_panel, solve, two_step_dtd_tm1, variance,
                         wald_test, workflow)
from panel_logit.aggregation import from_cells
from panel_logit.inference import RESTRICTION_SETS

SPEC_DUMMIES = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
SPEC_TREND = TimeTrendSpec(gamma=1.0, phi_coef=0.3)


def _history_counts(panel: PanelData) -> np.ndarray:
    """The history table of a panel of periods 1..T: its count of each history."""
    t = panel.n_periods
    codes = panel.y.astype(np.int64) @ (1 << np.arange(t - 1, -1, -1))
    return np.bincount(codes, minlength=1 << t)


def _outputs(result) -> dict[str, np.ndarray]:
    out = {"alpha": result.transformed.alpha, "vcov": result.transformed.vcov}
    orig = result.original
    for name in ("gamma", "dtd_t", "dtd_tp1", "phi_coef", "dtd_tm1"):
        p = getattr(orig, name)
        if p is not None:
            out[name] = np.array([p.value, p.se])
    if result.two_step is not None:
        two = result.two_step
        out["two_step"] = np.array([two.ratio, two.var_ratio, two.var_ratio_corrected])
    if result.wald is not None:
        out["wald"] = np.array([result.wald.statistic])
    return out


@pytest.mark.parametrize("spec, family, variant, two_step, wald", [
    (SPEC_DUMMIES, "A", "minus-3-7", True, "ab-dummies"),
    (SPEC_DUMMIES, "B", "minus-1-5", True, None),
    (SPEC_TREND, "C", "full", False, "c-trend"),
])
def test_history_counts_estimate_like_the_panel(spec, family, variant, two_step, wald):
    # seed 2 leaves every estimator here nondegenerate at this N; what is
    # under test is that both representations give the same output
    panel = simulate_panel(spec, DgpConfig(n_individuals=1_000_000, n_periods=8,
                                           sigma_eta_sq=0.5, seed=2))
    counted = _history_counts(panel)
    assert counted.sum() == panel.n and counted.shape == (256,)
    kwargs = dict(two_step=two_step, wald=wald)
    expected = _outputs(estimate_panel(panel.drop_prefix(3), family, variant, 7, **kwargs))
    got = _outputs(estimate_panel(counted, family, variant, 7, **kwargs))
    # both representations collapse to the same table of history counts
    assert got.keys() == expected.keys()
    for name, value in expected.items():
        assert np.array_equal(got[name], value), name


def test_each_panel_is_collapsed_once(monkeypatch):
    real = workflow.aggregate
    calls = []

    def counting(panel, t):
        calls.append(t)
        return real(panel, t)

    monkeypatch.setattr(workflow, "aggregate", counting)
    dgp = DgpConfig(n_individuals=200_000, n_periods=8, sigma_eta_sq=0.5, seed=2)
    panel = simulate_panel(SPEC_DUMMIES, dgp).drop_prefix(3)
    cache: dict = {}
    estimate_panel(panel, "A", "minus-3-7", 7, two_step=True, stats_cache=cache)
    estimate_panel(panel, "B", "minus-1-5", 7, two_step=True, stats_cache=cache)
    estimate_panel(panel, "A", "minus-3-7", 7, wald="ab-dummies", stats_cache=cache)
    assert calls == [7] and sorted(cache) == [7]

    # without a cache (the CLI's call) family C still collapses once
    calls.clear()
    trend = simulate_panel(SPEC_TREND, dgp).drop_prefix(3)
    estimate_panel(trend, "C", "full", 7, wald="c-trend")
    assert calls == [7]


# the Wald-set and two-step rules, stated both for a line and for a solved
# estimate
_SHARED_RULES = [
    ("C", "full", True, None, "applies to families A and B"),
    ("A", "minus-1-5", True, None, "drops component 'd'"),
    ("B", "minus-3-7", False, "ab-dummies", "expects components"),
    ("C", "full", False, "ab-dummies", "expects components"),
    ("A", "minus-3-7", False, "ab-dumies", "unknown restriction set"),
]


@pytest.mark.parametrize("family, variant, two_step, wald, message", _SHARED_RULES + [
    ("C", "minus-3-7", False, None, "non-square system"),
    ("A", "minus-r:x", False, None, "unknown variant"),
])
def test_estimator_line_is_refused_before_aggregation(monkeypatch, family, variant,
                                                      two_step, wald, message):
    def unreachable(panel, t):
        raise AssertionError("aggregated a panel for a refused line")

    monkeypatch.setattr(workflow, "aggregate", unreachable)
    panel = simulate_panel(SPEC_TREND, DgpConfig(n_individuals=50, n_periods=8, seed=1))
    with pytest.raises(ValueError, match=message):
        estimate_panel(panel, family, variant, 7, two_step=two_step, wald=wald)


@pytest.mark.parametrize("family, variant, two_step, wald, message", _SHARED_RULES)
def test_line_and_estimate_refuse_with_one_text(family, variant, two_step, wald,
                                                 message):
    with pytest.raises(ValueError) as by_line:
        EstimatorRun(family, variant, 7, two_step=two_step, wald=wald)
    # the same rule, met on a solved estimate of the line's family and variant
    spec = SPEC_TREND if family == "C" else SPEC_DUMMIES
    system = population_system(family, spec, 7, (-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3),
                               variant)
    alpha = solve(system)
    est = TransformedEstimate(family, system.variant, 7, 0,
                              system.col_labels, alpha, variance(system, alpha))
    with pytest.raises(ValueError) as by_estimate:
        if two_step:
            two_step_dtd_tm1(est, system)
        else:
            wald_test(est, wald)
    assert message in str(by_estimate.value)
    label = f"{family}[{variant}]@t7" + ("+two-step" if two_step else "")
    assert str(by_line.value) == f"estimator {label}: {by_estimate.value}"


def test_estimation_allocates_only_a_block():
    # no array grows with N: a panel is aggregated one block of window codes
    # at a time, and a history table is reshape-summed in place
    n = 2_000_000
    dgp = DgpConfig(n_individuals=n, n_periods=8, sigma_eta_sq=0.5, seed=2)
    panel = simulate_panel(SPEC_DUMMIES, dgp).drop_prefix(3)
    assert panel.n_periods == 5
    table = simulate_histogram(SPEC_DUMMIES, replace(dgp, n_individuals=10**8))
    for sample in (panel, table):
        tracemalloc.start()
        try:
            estimate_panel(sample, "A", "minus-3-7", 7, two_step=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


# the estimator lines of the benchmark's battery (perfbench/workloads.py)
_BATTERY = (EstimatorRun("A", "minus-3-7", 7, two_step=True),
            EstimatorRun("B", "minus-1-5", 7, two_step=True),
            EstimatorRun("A", "minus-3-7", 7, wald="ab-dummies"),
            EstimatorRun("C", "full", 7, wald="c-trend"))
_CELL = {"dense": st.integers(1, 10**6),
         "sparse": st.one_of(st.just(0), st.just(0), st.just(0), st.integers(1, 50)),
         "tiny": st.integers(0, 2),
         "heavy": st.one_of(st.integers(0, 9), st.integers(10**9, 10**12))}


@settings(max_examples=150, deadline=None)
@given(cells=st.sampled_from(sorted(_CELL)).flatmap(
    lambda kind: st.lists(_CELL[kind], min_size=32, max_size=32)))
def test_any_cell_table_gives_a_finite_result_or_a_typed_failure(cells):
    cells = np.array(cells, dtype=np.float64)
    if cells.sum() == 0:
        cells[0] = 1.0  # a panel holds at least one individual
    # a filled aggregate cache means the panel itself is never read
    cache = {7: from_cells(7, cells)}
    for run in _BATTERY:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = estimate_panel(None, run.family, run.variant, run.window_t,
                                        two_step=run.two_step, wald=run.wald,
                                        stats_cache=cache)
            except EstimationError:
                continue
        assert result.transformed.n == cells.sum()
        values = np.concatenate([np.ravel(v) for v in _outputs(result).values()])
        assert np.isfinite(values).all(), (run.label, _outputs(result))
        if run.wald:
            assert np.isfinite(result.wald.p_value)


@pytest.mark.parametrize("line", ["A minus-3-7 7 two-step", "B minus-1-5 7 two-step",
                                  "A minus-3-7 7 wald=ab-dummies", "C full 7 wald=c-trend"])
def test_battery_line_round_trips(line):
    run = EstimatorRun.parse(line)
    assert run in _BATTERY
    assert str(run) == line and EstimatorRun.parse(str(run)) == run


def test_every_run_that_builds_round_trips():
    # what ``str`` writes of any run that builds, ``parse`` reads back
    built = 0
    for args in product(("A", "B", "C", "Z"),
                        ("full", "minus-3-7", "minus-1-5", "minus-r:03", "minus-r:8",
                         "minus-r:9", "bogus"),
                        (7, np.int64(6), -2, "7", 7.5, np.float64(7.0), True),
                        (False, True, 1, np.True_),
                        (None, *sorted(RESTRICTION_SETS), "bogus")):
        try:
            run = EstimatorRun(*args[:3], two_step=args[3], wald=args[4])
        except ValueError:
            continue
        built += 1
        assert type(run.window_t) is int and type(run.two_step) is bool
        assert EstimatorRun.parse(str(run)) == run, args
    assert built == 3 * 24  # three integer windows, 24 lines with a bool two-step


@pytest.mark.parametrize("window, two_step, text", [
    ("7", False, "window must be an integer, got '7'"),
    (7.0, False, "window must be an integer, got 7.0"),
    (True, False, "window must be an integer, got True"),
    (7, 2, "two_step must be a bool, got 2"),
    (7, "no", "two_step must be a bool, got 'no'"),
], ids=["str-window", "float-window", "bool-window", "int-two-step", "str-two-step"])
def test_line_refuses_a_window_or_two_step_of_another_type(window, two_step, text):
    with pytest.raises(ValueError) as err:
        EstimatorRun("A", "minus-3-7", window, two_step=two_step)
    label = f"A[minus-3-7]@t{window}" + ("+two-step" if two_step else "")
    assert str(err.value) == f"estimator {label}: {text}"


@pytest.mark.parametrize("family, variant, wald, label, text", [
    (["A"], "minus-3-7", None, "['A'][minus-3-7]@t7", "family must be a str, got ['A']"),
    ("A", 3, None, "A[3]@t7", "variant must be a str, got 3"),
    ("A", "minus-3-7", 3, "A[minus-3-7]@t7", "wald must be a str, got 3"),
], ids=["list-family", "int-variant", "int-wald"])
def test_line_refuses_a_family_variant_or_wald_of_another_type(family, variant, wald,
                                                                label, text):
    with pytest.raises(ValueError) as err:
        EstimatorRun(family, variant, 7, wald=wald)
    assert str(err.value) == f"estimator {label}: {text}"


def test_window_digits_past_leading_zeros():
    # leading zeros do not count toward the digits int() converts; more
    # significant digits than it converts are refused in the reader's words
    over = sys.get_int_max_str_digits() + 1
    assert EstimatorRun.parse("A minus-3-7 " + "0" * over + "7").window_t == 7
    assert workflow._ascii_int("-" + "0" * over + "7") == -7
    assert workflow._ascii_int("+000") == workflow._ascii_int("-0") == 0
    # refused in linear time: a pattern that can split the zeros two ways
    # backtracks quadratically
    with pytest.raises(ValueError, match="must be an integer in ASCII digits"):
        workflow._ascii_int("0" * 10**6 + "x")
    with pytest.raises(ValueError) as err:
        EstimatorRun.parse("A minus-3-7 " + "1" * over)
    assert str(err.value) == (f"estimator window has {over} significant digits, "
                              "more than int() converts")


def test_estimate_without_a_panel_needs_the_window_cached():
    cache = {6: from_cells(6, np.ones(32))}
    with pytest.raises(ValueError, match="^no panel and no cached aggregate for window 7$"):
        estimate_panel(None, "A", "minus-3-7", 7, stats_cache=cache)
    with pytest.raises(ValueError, match="^no panel and no cached aggregate for window 7$"):
        estimate_panel(None, "A", "minus-3-7", 7)
    assert cache.keys() == {6}


def test_estimate_reports_the_cells_total_as_n():
    # counts past 2**52 stay exact: every partial sum is an integer below 2**53
    for n in (123_457, 2**52 + 1):
        panel = simulate_histogram(SPEC_DUMMIES, DgpConfig(n_individuals=n, n_periods=8,
                                                           sigma_eta_sq=0.5, seed=2))
        assert panel.sum() == n
        est = estimate_panel(panel, "A", "minus-3-7", 7).transformed
        assert type(est.n) is int and est.n == n
        # a filled cache is all that is read: no panel to take n from
        cache = {7: from_cells(7, aggregate(panel, 7).summands.counts)}
        assert estimate_panel(None, "B", "minus-1-5", 7, stats_cache=cache).transformed.n == n
