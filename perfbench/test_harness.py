"""Smoke test of the benchmark harness at tiny sizes.

Every workload runs a few operations untraced and traced; the result must
be correct and carry exactly the metrics ``BENCHMARK.json`` declares, with
their units and finite numeric values, and the traced run must time every
layer the workload is mapped to.  Run from the repository root::

    python3 -m pytest -q perfbench/test_harness.py
"""

import functools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

pl = run.require_source()

import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {"csv-estimate": {"n": 3000}, "estimate-large": {"n": 5000},
         "mc-desk": {"n": 3000, "replications": 2}}
SEED = 12345  # no stored reference: reference outputs hold only at full size
# per-layer metrics each workload is mapped to (perfbench/README.md); the
# traced run must give them nonzero values, so a layer the tracer stopped
# seeing cannot pass for a layer that became free
ORACLE = [f"oracle.{level}_s" for level in workloads.ORACLE_LEVELS] + ["oracle.checks_passed"]
CALLS = ["estimators.build_s", "estimators.solve_s", "estimators.variance_s",
         "inference.recover_s", "inference.two_step_s", "inference.wald_s"]
MAPPED = {
    "csv-estimate": ["panel.write_s", "panel.read_s", "panel.read_bytes_per_s",
                     "cli.overhead_s"],
    "estimate-large": ["model.simulate_s", "aggregation.aggregate_s", "aggregation.windows",
                       "aggregation.summand_bytes", "workflow.glue_s"] + CALLS,
    "mc-desk": ["model.simulate_s", "mc.replication_s", "mc.scaling_efficiency"] + CALLS,
}


def test_every_workload_is_declared():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(SMALL) == sorted(workloads.WORKLOADS) == sorted(MAPPED)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke(name, trace, capsys):
    make = functools.partial(workloads.WORKLOADS[name], **SMALL[name])
    result = run.run_workload(make, SEED, 0.2, trace)
    printed = capsys.readouterr().out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    for metric, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), metric
        assert metric in printed
    positive = MAPPED[name] + ORACLE if trace else list(result["metrics"])
    assert [m for m in positive if not result["metrics"][m]["value"] > 0] == []


def test_tracer_refuses_a_missing_call_site():
    targets = spans.layer_targets(pl) + [(pl.workflow, "no_such_function", "x.y")]
    with pytest.raises(LookupError, match="panel_logit.workflow.no_such_function"):
        spans.Tracer(targets)


def test_mc_calls_survive_a_lost_summary(tmp_path):
    """At this size and seed one estimator fails in every replication, so
    ``run_mc`` raises; the degenerate count must still cover every call."""
    wl = workloads.McDesk(SEED, tmp_path, **SMALL["mc-desk"])
    wl.setup()
    record = wl.op()
    assert record["status"] == "AllReplicationsFailed"
    degenerate = 0
    for r in range(wl.replications):
        panel = workloads.simulate(workloads.SPEC_DUMMIES, wl.n, SEED, stream=r)
        records = workloads.estimate_records(panel, workloads.DUMMIES_BATTERY, {})
        degenerate += sum(rec["status"] != "ok" for rec in records)
    assert wl.calls(record) == (wl.replications * len(workloads.DUMMIES_BATTERY), degenerate)


def test_tail_keeps_ten_or_a_quarter_of_the_samples_beyond():
    for n, beyond in ((3, 0), (8, 2), (14, 3), (40, 10), (100, 10)):
        samples = [float(k) for k in range(n)]
        value, pct = run.tail(samples[::-1])
        assert sum(s > value for s in samples) == beyond
        assert pct == 100.0 * (n - beyond) / n
