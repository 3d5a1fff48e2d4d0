import pytest

from panel_logit import (AllReplicationsFailed, DgpConfig, EstimatorRun,
                         McConfig, TimeDummiesSpec, TimeTrendSpec, run_mc,
                         true_values)
from panel_logit import mc
from panel_logit.inference import SingularRestrictionCovariance
from panel_logit.mc import _summarize

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
    run = EstimatorRun("A", "minus-3-7", 7, two_step=True)
    truths = true_values(HET, run)
    assert truths["gamma"] == 0.8
    assert truths["dtd_t"] == pytest.approx(0.15)
    assert truths["dtd_tp1"] == pytest.approx(-0.2)
    assert truths["dtd_tm1"] == pytest.approx(0.1)
    trend = TimeTrendSpec(gamma=1.0, phi_coef=0.3)
    truths_c = true_values(trend, EstimatorRun("C", "full", 7))
    assert truths_c == {"gamma": 1.0, "phi_coef": 0.3}


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
    summary = run_mc(config, threads=1, keep_raw=True)
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
    # two individuals cannot span the window patterns: always singular
    config = _config(n=2, reps=3, seed=5)
    with pytest.raises(AllReplicationsFailed):
        run_mc(config, threads=1)


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


def test_config_refuses_negative_discard():
    # refused at construction, not in every replication's drop_prefix
    with pytest.raises(ValueError, match="discard_prefix must be nonnegative, got -1"):
        McConfig(spec=HET, dgp=DgpConfig(n_individuals=10, n_periods=8),
                 replications=1, estimators=(EstimatorRun("A", "minus-3-7", 7),),
                 discard_prefix=-1)


@pytest.mark.parametrize("run, message", [
    (EstimatorRun("Z", "minus-3-7", 7), r"Z\[minus-3-7\]@t7: unknown family 'Z'"),
    (EstimatorRun("A", "minus-3-8", 7), r"A\[minus-3-8\]@t7: unknown variant"),
    (EstimatorRun("A", "minus-3-7", 7, wald="ab-dumies"), "unknown restriction set 'ab-dumies'"),
    (EstimatorRun("A", "minus-3-7", 6), r"window 6 needs periods 3\.\.7, the panel keeps 4\.\.8"),
    (EstimatorRun("A", "minus-3-7", 8), r"window 8 needs periods 5\.\.9, the panel keeps 4\.\.8"),
    (EstimatorRun("B", "minus-3-7", 7, wald="ab-dummies"),
     r"B\[minus-3-7\]@t7: restriction set 'ab-dummies' expects components"),
    (EstimatorRun("A", "minus-1-5", 7, two_step=True),
     r"A\[minus-1-5\]@t7\+two-step: variant 'minus-1-5' drops component 'd'"),
    (EstimatorRun("C", "full", 7, two_step=True), r"C\[full\]@t7\+two-step: .* applies to families A and B"),
    (EstimatorRun("A", "full", 7), r"A\[full\]@t7: variant 'full' leaves a non-square system"),
    # the label leaves out the Wald set, so the two lines would print alike
    (EstimatorRun("A", "minus-3-7", 7, wald="ab-dummies"),
     r"share a label \(the label does not show the Wald set\): A\[minus-3-7\]@t7$"),
], ids=["family", "variant", "wald", "window-early", "window-late", "wald-labels",
        "two-step-without-d", "two-step-family-c", "non-square", "shared-label"])
def test_config_refuses_bad_estimator_line(run, message):
    # refused before any replication simulates its panel
    with pytest.raises(ValueError, match=message):
        _config(estimators=(EstimatorRun("A", "minus-3-7", 7), run))


def test_pool_never_exceeds_replications(monkeypatch):
    seen = []

    class StubPool:
        """Runs the mapped calls in this process and starts no worker."""

        def __init__(self, max_workers, initializer):
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
