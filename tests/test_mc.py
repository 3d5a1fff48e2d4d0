import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from panel_logit import (AllReplicationsFailed, DgpConfig, EstimatorRun,
                         McConfig, TimeDummiesSpec, TimeTrendSpec, estimate_panel,
                         history_law, run_mc, simulate_histogram, simulate_panel,
                         true_values)
from panel_logit import mc
from panel_logit.inference import SingularRestrictionCovariance
from panel_logit.mc import _summarize
from panel_logit.model import MAX_HISTORY_PERIODS

HET = TimeDummiesSpec(gamma=0.8, td=(0.0, 0.1, -0.05, 0.2, 0.05, 0.15, 0.3, 0.1))


def _config(n=20_000, reps=4, sigma=1.5, seed=2, estimators=None, spec=HET,
            sampler="panel"):
    estimators = estimators or (EstimatorRun("A", "minus-3-7", 7),)
    return McConfig(spec=spec,
                    dgp=DgpConfig(n_individuals=n, n_periods=8,
                                  sigma_eta_sq=sigma, seed=seed),
                    replications=reps, estimators=estimators, discard_prefix=3,
                    sampler=sampler)


def test_true_values():
    truths = true_values(HET, "A", 7, two_step=True)
    assert truths["gamma"] == 0.8
    assert truths["dtd_t"] == pytest.approx(0.15)
    assert truths["dtd_tp1"] == pytest.approx(-0.2)
    assert truths["dtd_tm1"] == pytest.approx(0.1)
    assert "dtd_tm1" not in true_values(HET, "B", 7)
    trend = TimeTrendSpec(gamma=1.0, phi_coef=0.3)
    assert true_values(trend, "C", 7) == {"gamma": 1.0, "phi_coef": 0.3}


def test_config_refuses_trend_estimator_on_dummies_model():
    # the trend coefficient has no true value under period dummies
    with pytest.raises(ValueError, match=r"C\[full\]@t7 .* time-trend model"):
        _config(estimators=(EstimatorRun("A", "minus-3-7", 7),
                            EstimatorRun("C", "full", 7)))
    _config(estimators=(EstimatorRun("C", "full", 7),),
            spec=TimeTrendSpec(gamma=1.0, phi_coef=0.3))


def test_summarize_constant_stub():
    # a stubbed estimator returning constants: mean = c, sd = 0, rmse = |bias|
    config = _config(reps=3)
    run = config.estimators[0]
    c = 0.8
    records = [{"status": "ok", "params": {"gamma": (c, 0.1),
                                           "dtd_t": (c, 0.1),
                                           "dtd_tp1": (c, 0.1)}}
               for _ in range(3)]
    est = _summarize(config, run, records)
    p = est.params["dtd_t"]  # true value 0.15, constant estimate c
    assert p.mean == pytest.approx(c, rel=1e-15)
    assert p.sd == pytest.approx(0.0, abs=1e-14)
    assert p.bias == pytest.approx(c - 0.15, rel=1e-12)
    assert p.rmse == pytest.approx(abs(c - 0.15), rel=1e-12)
    assert p.se == pytest.approx(0.1, rel=1e-15)


def test_summarize_skewed_se_stub():
    # one replication with a wild se: the mean follows it, the median does not
    config = _config(reps=5)
    run = config.estimators[0]
    ses = [0.1, 0.2, 0.3, 0.4, 9.0]
    records = [{"status": "ok", "params": {name: (0.5, se) for name in
                                           ("gamma", "dtd_t", "dtd_tp1")}}
               for se in ses]
    records.append({"status": "singular_system", "message": "stub"})
    p = _summarize(config, run, records).params["gamma"]
    assert p.se == pytest.approx(2.0, rel=1e-15)
    assert p.se_median == 0.3


def test_single_replication_summary():
    config = _config(reps=1)
    summary = run_mc(config, threads=1)
    est = summary.estimators[0]
    assert est.n_success == 1
    for p in est.params.values():
        assert p.sd == 0.0
        assert p.rmse == pytest.approx(abs(p.bias))


def test_rmse_identity():
    config = _config(reps=6, seed=2)
    summary = run_mc(config, threads=1)
    for est in summary.estimators:
        r = est.n_success
        for p in est.params.values():
            assert p.rmse**2 == pytest.approx(p.bias**2 + p.sd**2 * (r - 1) / r,
                                              abs=1e-10)


def test_deterministic_and_schedule_independent():
    for sampler in ("panel", "histogram"):
        config = _config(reps=4, seed=2, sampler=sampler)
        a = run_mc(config, threads=1)
        b = run_mc(config, threads=2)
        c = run_mc(config, threads=1)
        for s1, s2 in ((a, b), (a, c)):
            for e1, e2 in zip(s1.estimators, s2.estimators):
                assert e1.failures == e2.failures
                for name in e1.params:
                    p1, p2 = e1.params[name], e2.params[name]
                    assert (p1.mean, p1.sd, p1.se, p1.bias, p1.rmse) == \
                           (p2.mean, p2.sd, p2.se, p2.bias, p2.rmse)


def test_failure_accounting():
    # heterogeneous small-N panels degenerate often; counts must reconcile
    spec = TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
    config = _config(n=800, reps=12, sigma=0.5, seed=7, spec=spec,
                     estimators=(EstimatorRun("A", "minus-3-7", 7, two_step=True),))
    summary = run_mc(config, threads=1)
    est = summary.estimators[0]
    assert est.n_success + sum(est.failures.values()) == 12
    assert len(summary.raw) == 12
    statuses = {rec["status"] for rec in summary.raw}
    assert "ok" in statuses


def test_failure_status_names_the_error_class(monkeypatch):
    # a singular Wald restriction covariance is recorded by its own name
    def singular_wald(*args, **kwargs):
        raise SingularRestrictionCovariance("restriction covariance is singular")

    monkeypatch.setattr(mc, "estimate_panel", singular_wald)
    records = mc._run_replication(_config(n=50, reps=1), 0)
    assert [rec["status"] for rec in records] == ["singular_restriction_covariance"]
    assert records[0]["message"] == "restriction covariance is singular"


def test_all_replications_failed():
    # two individuals cannot span the window patterns: always singular.  The
    # error carries the whole summary, the dead line's statistics NaN
    config = _config(n=2, reps=3, seed=5,
                     estimators=(EstimatorRun("A", "minus-3-7", 7, wald="ab-dummies"),))
    with pytest.raises(AllReplicationsFailed,
                       match=r"^A\[minus-3-7\]@t7: all 3 replications failed: ") as raised:
        run_mc(config, threads=1)
    summary = raised.value.summary
    est, = summary.estimators
    assert (est.n_success, sum(est.failures.values()), len(summary.raw)) == (0, 3, 3)
    assert list(est.params) == ["gamma", "dtd_t", "dtd_tp1"]
    assert all(np.isnan([p.mean, p.sd, p.se, p.se_median, p.bias, p.rmse]).all()
               and p.true == true_values(HET, "A", 7)[name] for name, p in est.params.items())
    assert np.isnan(est.wald_rejection_rate) and est.wald_df is None


def test_all_replications_failed_keeps_the_other_lines():
    # the summary of a run with one dead line is the run's, the others intact
    lines = (EstimatorRun("A", "minus-3-7", 7), EstimatorRun("B", "minus-1-5", 7, two_step=True))
    config = _config(n=5000, reps=1, seed=2, estimators=lines)
    with pytest.raises(AllReplicationsFailed, match=r"^B\[minus-1-5\]@t7\+two-step: ") as raised:
        run_mc(config, threads=1)
    alive = run_mc(replace(config, estimators=lines[:1]), threads=1)
    assert raised.value.summary.estimators[0] == alive.estimators[0]


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(spec=HET,
                 dgp=DgpConfig(n_individuals=10, n_periods=8),
                 replications=0,
                 estimators=(EstimatorRun("A", "minus-3-7", 7),))
    with pytest.raises(ValueError):
        McConfig(spec=HET,
                 dgp=DgpConfig(n_individuals=10, n_periods=8),
                 replications=1,
                 estimators=(EstimatorRun("A", "minus-3-7", 7),),
                 discard_prefix=4)
    with pytest.raises(ValueError, match="sampler"):
        _config(sampler="bootstrap")
    with pytest.raises(ValueError, match="^need at least one estimator$"):
        McConfig(spec=HET, dgp=DgpConfig(n_individuals=10, n_periods=8),
                 replications=1, estimators=())


@pytest.mark.parametrize("build, message", [
    (lambda: _config(reps=2.5), "replications must be an integer, got 2.5"),
    (lambda: replace(_config(), discard_prefix=True),
     "discard_prefix must be an integer, got True"),
    (lambda: DgpConfig(n_individuals=2.5, n_periods=8),
     "n_individuals must be an integer, got 2.5"),
    (lambda: DgpConfig(n_individuals=10, n_periods=8.0),
     "n_periods must be an integer, got 8.0"),
    (lambda: DgpConfig(n_individuals=10, n_periods=8, seed="1"),
     "seed must be an integer, got '1'"),
    (lambda: DgpConfig(n_individuals=10, n_periods=8, stream=1.5),
     "stream must be an integer, got 1.5"),
], ids=["replications", "discard_prefix", "n_individuals", "n_periods", "seed", "stream"])
def test_integer_fields_refuse_other_values(build, message):
    # refused when the config is built, not deep inside a replication
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_integer_fields_take_numpy_integers():
    dgp = DgpConfig(n_individuals=np.int32(10), n_periods=np.int64(8), seed=np.uint64(3),
                    stream=np.int64(1))
    McConfig(spec=HET, dgp=dgp, replications=np.int64(2), discard_prefix=np.int8(3),
             estimators=(EstimatorRun("A", "minus-3-7", 7),))


@pytest.mark.parametrize("sampler", mc.SAMPLERS)
def test_config_refuses_a_dummies_model_short_of_periods(sampler):
    # 8 period effects for 10 periods: the config is refused before any
    # replication draws a panel, and both samplers refuse with its text
    dgp = DgpConfig(n_individuals=50, n_periods=10)
    message = "^spec provides 8 period effects, need 10$"
    with pytest.raises(ValueError, match=message):
        McConfig(spec=HET, dgp=dgp, replications=2, sampler=sampler,
                 estimators=(EstimatorRun("A", "minus-3-7", 9),))
    simulate = simulate_histogram if sampler == "histogram" else simulate_panel
    with pytest.raises(ValueError, match=message):
        simulate(HET, dgp)


def test_histogram_config_refuses_more_periods_than_the_law_enumerates():
    # refused when the config is built, with history_law's text; the panel
    # sampler has no such limit
    trend = TimeTrendSpec(gamma=0.5, phi_coef=0.2)
    dgp = DgpConfig(n_individuals=50, n_periods=MAX_HISTORY_PERIODS + 1)
    runs = (EstimatorRun("C", "full", 9),)
    message = (f"^history law enumerates 2\\*\\*T histories; T = {MAX_HISTORY_PERIODS + 1} "
               f"is outside 1..{MAX_HISTORY_PERIODS}$")
    with pytest.raises(ValueError, match=message):
        McConfig(spec=trend, dgp=dgp, replications=2, estimators=runs, sampler="histogram")
    with pytest.raises(ValueError, match=message):
        history_law(trend, dgp.n_periods, 0.0)
    McConfig(spec=trend, dgp=dgp, replications=2, estimators=runs)
    McConfig(spec=trend, dgp=replace(dgp, n_periods=MAX_HISTORY_PERIODS), replications=2,
             estimators=runs, sampler="histogram")


@pytest.mark.parametrize("n", [2**53, 2**63, 2**70])
def test_histogram_config_refuses_more_individuals_than_counts_hold(n):
    # refused when the config is built, not in a worker; the panel sampler
    # refuses a panel it cannot allocate when it draws it
    with pytest.raises(ValueError, match=f"^panel of {n} individuals exceeds "
                                         "the exact range 2\\*\\*53$"):
        _config(n=n, sampler="histogram")
    _config(n=n)
    _config(n=2**53 - 1, sampler="histogram")


def test_config_refuses_negative_discard():
    # refused at construction, not in every replication
    with pytest.raises(ValueError, match="discard_prefix must be nonnegative, got -1"):
        McConfig(spec=HET, dgp=DgpConfig(n_individuals=10, n_periods=8),
                 replications=1, estimators=(EstimatorRun("A", "minus-3-7", 7),),
                 discard_prefix=-1)


@pytest.mark.parametrize("line, message", [
    (("Z", "minus-3-7", 7), r"Z\[minus-3-7\]@t7: unknown family 'Z'"),
    (("A", "minus-3-8", 7), r"A\[minus-3-8\]@t7: unknown variant"),
    (("A", "minus-3-7", 7, False, "ab-dumies"), "unknown restriction set 'ab-dumies'"),
    (("A", "minus-3-7", 6), r"window 6 needs periods 3\.\.7, the panel keeps 4\.\.8"),
    (("A", "minus-3-7", 8), r"window 8 needs periods 5\.\.9, the panel keeps 4\.\.8"),
    (("B", "minus-3-7", 7, False, "ab-dummies"),
     r"B\[minus-3-7\]@t7: restriction set 'ab-dummies' expects components"),
    (("A", "minus-1-5", 7, True),
     r"A\[minus-1-5\]@t7\+two-step: variant 'minus-1-5' drops component 'd'"),
    (("C", "full", 7, True), r"C\[full\]@t7\+two-step: .* applies to families A and B"),
    (("A", "full", 7), r"A\[full\]@t7: variant 'full' leaves a non-square system"),
    # the label leaves out the Wald set, so the two lines would print alike
    (("A", "minus-3-7", 7, False, "ab-dummies"),
     r"share a label \(the label does not show the Wald set\): A\[minus-3-7\]@t7$"),
], ids=["family", "variant", "wald", "window-early", "window-late", "wald-labels",
        "two-step-without-d", "two-step-family-c", "non-square", "shared-label"])
def test_config_refuses_bad_estimator_line(line, message):
    # refused before any replication simulates its panel: the line rules
    # when the run is built, the rest by the config
    with pytest.raises(ValueError, match=message):
        _config(estimators=(EstimatorRun("A", "minus-3-7", 7), EstimatorRun(*line)))


def test_one_variant_in_two_spellings_is_one_estimator():
    run = EstimatorRun("A", "minus-r:03", 7)
    assert run == EstimatorRun("A", "minus-r:3", 7) and run.variant == "minus-r:3"
    with pytest.raises(ValueError, match=r"share a label .*: A\[minus-r:3\]@t7$"):
        _config(estimators=(EstimatorRun("A", "minus-r:3", 7), run))


def test_pool_never_exceeds_replications(monkeypatch):
    seen = []

    class StubPool:
        """Runs the mapped calls in this process and starts no worker."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            seen.append(chunksize)
            return map(fn, *iterables)

    config = _config(reps=3, seed=2)
    serial = run_mc(config, threads=1)
    monkeypatch.setattr(mc, "ProcessPoolExecutor", StubPool)
    assert run_mc(config, threads=5000) == serial
    assert seen == [3, 1]
    seen.clear()
    run_mc(_config(reps=40, seed=2), threads=2)
    assert seen == [2, 2]


def _battery_threads(dummies, trend) -> int:
    """Run the benchmark battery's four estimator lines, and the lines with
    the largest matrices the package inverts (the 7-row system's 8-row
    two-step sandwich, the ``ab-trend`` restrictions), on the dummies and
    trend panels; return this process's OS thread count afterwards."""
    for panel, family, variant, two_step, wald in (
            (dummies, "A", "minus-3-7", True, None),
            (dummies, "B", "minus-1-5", True, None),
            (dummies, "A", "minus-3-7", False, "ab-dummies"),
            (trend, "C", "full", False, "c-trend"),
            (dummies, "A", "minus-r:3", True, None),
            (dummies, "A", "minus-3-7", False, "ab-trend")):
        estimate_panel(panel, family, variant, 7, two_step=two_step, wald=wald)
    return len(os.listdir("/proc/self/task"))


_replication = mc._run_replication


def _replication_with_thread_count(config, r):
    """``mc._run_replication``, each record also holding the worker's OS
    thread count after the replication."""
    records = _replication(config, r)
    return [dict(rec, threads=len(os.listdir("/proc/self/task"))) for rec in records]


FORKED_THREADS = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or multiprocessing.get_start_method() != "fork",
    reason="counts a forked worker's threads in /proc/self/task")
TD16 = (0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2) * 2  # period effects, T <= 16


@FORKED_THREADS
@pytest.mark.parametrize("simulate, n", [(simulate_panel, 20_000),
                                         (simulate_histogram, 100_000_000)],
                         ids=["panel", "histogram"])
def test_estimation_starts_no_thread_in_a_forked_worker(simulate, n):
    # a forked worker starts on one thread; no estimator call may wake a
    # BLAS thread pool there, or every pool worker would busy-wait on it
    dgp = DgpConfig(n_individuals=n, n_periods=8, sigma_eta_sq=0.5, seed=2)
    dummies = simulate(TimeDummiesSpec(gamma=1.0, td=TD16[:8]), dgp)
    trend = simulate(TimeTrendSpec(gamma=1.0, phi_coef=0.3), dgp)
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        assert pool.submit(_battery_threads, dummies, trend).result(timeout=120) == 1


@FORKED_THREADS
@pytest.mark.parametrize("sampler, n, n_periods", [
    ("panel", 20_000, 8), ("histogram", 100_000_000, 8), ("histogram", 100_000_000, 16),
], ids=["panel", "histogram", "histogram-T16"])
def test_pool_workers_start_no_thread(monkeypatch, sampler, n, n_periods):
    # end to end: the samplers too, with the histogram law not yet cached
    history_law.cache_clear()
    monkeypatch.setattr(mc, "_run_replication", _replication_with_thread_count)
    config = McConfig(
        spec=TimeDummiesSpec(gamma=1.0, td=TD16[:n_periods]),
        dgp=DgpConfig(n_individuals=n, n_periods=n_periods, sigma_eta_sq=0.5, seed=2),
        replications=2, discard_prefix=3, sampler=sampler,
        estimators=(EstimatorRun("A", "minus-3-7", 7, two_step=True),
                    EstimatorRun("B", "minus-1-5", 7, two_step=True),
                    EstimatorRun("A", "minus-3-7", 7, wald="ab-dummies")))
    summary = run_mc(config, threads=2)
    assert [rec["threads"] for rec in summary.raw] == [1] * 6


def test_worker_count_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert mc.resolve_threads(None) == 2
    assert mc.resolve_threads(5) == 5
    assert mc.resolve_threads(np.int64(2)) == 2


@pytest.mark.parametrize("threads, message", [
    (0, "threads must be a whole number of at least 1, got 0"),
    (-3, "threads must be a whole number of at least 1, got -3"),
    (2.5, "threads must be a whole number of at least 1, got 2.5"),
    (True, "threads must be a whole number of at least 1, got True"),
], ids=["zero", "negative", "fraction", "bool"])
def test_worker_count_refuses_a_count_below_one(threads, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        mc.resolve_threads(threads)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_mc(_config(reps=2), threads=threads)


def test_estimator_labels():
    run = EstimatorRun("B", "minus-1-5", 7, two_step=True)
    assert run.label == "B[minus-1-5]@t7+two-step"


def test_table_rows_schema():
    summary = run_mc(_config(reps=2, seed=2), threads=1)
    rows = summary.table_rows()
    assert {"estimator", "parameter", "true", "mean", "sd", "se", "se_median",
            "bias", "rmse"} == set(rows[0])
    text = summary.format_table()
    assert "gamma" in text and "se_median" in text and "rmse" in text
