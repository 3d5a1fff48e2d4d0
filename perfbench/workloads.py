"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Every workload is driven by one caller in one process that issues the next
operation after the previous one returns (a closed loop).  The only
parallelism is ``run_mc``'s own process pool in ``mc-desk``.

The estimator battery is the same wherever it is used, so degenerate shares
compare across workloads: three dummies-model estimators on the period-dummy
panel (8 periods, 3 discarded, sigma_eta^2 = 0.5) and the trend-model
estimator with its Wald test on the trend panel.

The exact oracle has no sample and no seed; it is timed once per traced run
(``oracle_checks``) instead of as a workload of its own.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np

import panel_logit as pl
import panel_logit.cli
from reference import canonical

SPEC_DUMMIES = pl.TimeDummiesSpec(gamma=1.0, td=(0.1, -0.1, 0.3, -0.3, -0.1, 0.3, 0.5, 0.2))
SPEC_TREND = pl.TimeTrendSpec(gamma=1.0, phi_coef=0.3)
N_PERIODS = 8
DISCARD = 3
SIGMA_ETA_SQ = 0.5
DUMMIES_BATTERY = (pl.EstimatorRun("A", "minus-3-7", 7, two_step=True),
                   pl.EstimatorRun("B", "minus-1-5", 7, two_step=True),
                   pl.EstimatorRun("A", "minus-3-7", 7, wald="ab-dummies"))
TREND_BATTERY = (pl.EstimatorRun("C", "full", 7, wald="c-trend"),)
# the oracle's check levels when the benchmark was defined, named so that a
# level added later does not silently enlarge the traced oracle pass
ORACLE_LEVELS = ("identities", "moments", "ranks", "population")


def nproc() -> int:
    """CPUs this process may run on, as the ``nproc`` command reports."""
    return len(os.sched_getaffinity(0))


def ok_ratio_name(run: pl.EstimatorRun) -> str:
    name = f"mc.ok_ratio.{run.family}-{run.variant}"
    if run.two_step:
        name += "-two-step"
    if run.wald:
        name += "-wald"
    return name


def simulate(spec, n: int, seed: int, stream: int = 0) -> pl.PanelData:
    dgp = pl.DgpConfig(n_individuals=n, n_periods=N_PERIODS,
                       sigma_eta_sq=SIGMA_ETA_SQ, seed=seed, stream=stream)
    return pl.simulate_panel(spec, dgp).drop_prefix(DISCARD)


def estimate_records(panel: pl.PanelData, battery, cache: dict) -> list[dict]:
    """Run a battery with one shared aggregate cache; one record per call.

    A call ending in a typed ``EstimationError`` is a degenerate outcome,
    recorded by its class name; any other exception propagates and fails
    the operation.
    """
    records = []
    for run in battery:
        try:
            result = pl.estimate_panel(panel, run.family, run.variant, run.window_t,
                                       two_step=run.two_step, wald=run.wald,
                                       stats_cache=cache)
        except pl.EstimationError as exc:
            records.append({"estimator": run.label, "status": type(exc).__name__})
            continue
        rec = {"estimator": run.label, "status": "ok"}
        rec.update(result.to_dict())
        rec["transformed"].pop("vcov", None)
        records.append(rec)
    return records


class Workload:
    """Base: ``setup`` builds inputs, ``op`` is one timed operation."""

    name = ""
    item = ""            # what items_per_s counts
    # the traced operation whose spans give the per-operation counts; None
    # means the traced operations of the loop
    layer_op: str | None = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @property
    def sizes(self) -> dict:
        """Input sizes; stored reference values apply only at these sizes."""
        return {}

    def setup(self) -> None:
        pass

    def op(self):
        raise NotImplementedError

    def items(self, record) -> int:
        """Items of work (individuals, replications) in one operation."""
        raise NotImplementedError

    def check(self, record) -> list[str]:
        """Problems with one operation's output beyond matching the reference."""
        return []

    def calls(self, record) -> tuple[int, int]:
        """(estimator calls attempted, calls ending in EstimationError)."""
        raise NotImplementedError

    def traced_extras(self, tracer) -> tuple[int, list[str]]:
        """Extra traced operations run once per traced run: (ops, problems)."""
        return 0, []

    def layer_metrics(self, loop) -> dict[str, float]:
        """Per-layer metrics only this workload can give."""
        return {}


def battery_calls(records: list[dict]) -> tuple[int, int]:
    return len(records), sum(rec["status"] != "ok" for rec in records)


class CsvEstimate(Workload):
    """Read a panel CSV, then run the dummies battery on it."""

    name = "csv-estimate"
    item = "individuals"

    def __init__(self, seed: int, workdir: Path, n: int = 200_000):
        super().__init__(seed, workdir)
        self.n = n
        self.path = workdir / "panel.csv"
        self.cli = None   # the CLI's result object, or its exit code on failure

    @property
    def sizes(self) -> dict:
        return {"n": self.n}

    def setup(self) -> None:
        self.panel = simulate(SPEC_DUMMIES, self.n, self.seed)
        pl.write_panel_csv(self.panel, self.path)
        self.csv_bytes = self.path.stat().st_size

    def op(self):
        panel = pl.read_panel_csv(self.path)
        records = estimate_records(panel, DUMMIES_BATTERY, {})
        same = (panel.t0 == self.panel.t0 and np.array_equal(panel.y, self.panel.y)
                and np.array_equal(panel.ids, self.panel.ids))
        return {"panel_roundtrip": bool(same), "estimates": records}

    def items(self, record) -> int:
        return self.n

    def check(self, record) -> list[str]:
        problems = []
        if not record["panel_roundtrip"]:
            problems.append("panel read back from CSV differs from the panel written")
        if self.cli is not None:
            first = record["estimates"][0]   # the estimator the CLI runs
            if first["status"] == "ok":
                same = isinstance(self.cli, dict) and all(
                    canonical(self.cli[k]) == canonical(first[k]) for k in ("original", "two_step"))
            else:
                same = self.cli == 1
            if not same:
                problems.append("cli estimate disagrees with estimate_panel")
        return problems

    def calls(self, record) -> tuple[int, int]:
        return battery_calls(record["estimates"])

    def traced_extras(self, tracer) -> tuple[int, list[str]]:
        out = self.workdir / "estimate.json"
        argv = ["estimate", str(self.path), "--family", "A", "--variant", "minus-3-7",
                "--window", "7", "--two-step", "--out", str(out)]
        with tracer.operation("cli"), tracer.span("cli.main"):
            code = pl.cli.main(argv)
        self.cli = json.loads(out.read_text()) if code == 0 else code
        return 1, [] if code in (0, 1) else [f"cli estimate exited with {code}"]


class EstimateLarge(Workload):
    """The full battery on in-memory dummies and trend panels, fresh cache per op."""

    name = "estimate-large"
    item = "individuals"

    def __init__(self, seed: int, workdir: Path, n: int = 2_000_000):
        super().__init__(seed, workdir)
        self.n = n

    @property
    def sizes(self) -> dict:
        return {"n": self.n}

    def setup(self) -> None:
        self.dummies = self.trend = None  # a repeated set-up replaces, not adds
        self.dummies = simulate(SPEC_DUMMIES, self.n, self.seed)
        self.trend = simulate(SPEC_TREND, self.n, self.seed, stream=1)

    def op(self):
        return {"dummies": estimate_records(self.dummies, DUMMIES_BATTERY, {}),
                "trend": estimate_records(self.trend, TREND_BATTERY, {})}

    def items(self, record) -> int:
        return 2 * self.n

    def calls(self, record) -> tuple[int, int]:
        return battery_calls(record["dummies"] + record["trend"])


def summary_record(summary: pl.McSummary) -> dict:
    out = dataclasses.asdict(summary)
    out.pop("raw", None)
    return out


class McDesk(Workload):
    """One ``run_mc`` of the dummies battery on ``nproc`` worker processes."""

    name = "mc-desk"
    item = "replications"
    layer_op = "serial"   # pool workers' calls are not traced

    def __init__(self, seed: int, workdir: Path, n: int = 200_000, replications: int = 8):
        super().__init__(seed, workdir)
        self.n = n
        self.replications = replications
        self.threads = nproc()
        self.serial = None
        self.recovered = None

    @property
    def sizes(self) -> dict:
        return {"n": self.n, "replications": self.replications}

    def setup(self) -> None:
        dgp = pl.DgpConfig(n_individuals=self.n, n_periods=N_PERIODS,
                           sigma_eta_sq=SIGMA_ETA_SQ, seed=self.seed)
        self.config = pl.McConfig(spec=SPEC_DUMMIES, dgp=dgp,
                                  replications=self.replications,
                                  estimators=DUMMIES_BATTERY, discard_prefix=DISCARD)

    def _run(self, threads: int, config: pl.McConfig | None = None) -> dict:
        try:
            return summary_record(pl.run_mc(config or self.config, threads=threads))
        except pl.AllReplicationsFailed as exc:
            return {"status": type(exc).__name__, "message": str(exc)}

    def op(self):
        return self._run(self.threads)

    def items(self, record) -> int:
        return self.replications

    def check(self, record) -> list[str]:
        if self.serial is not None and canonical(record) != canonical(self.serial):
            return ["run_mc summary at threads=nproc differs from threads=1"]
        return []

    def successes(self, record) -> dict[str, int]:
        """Successful replications per estimator label.

        When every replication of one estimator fails, ``run_mc`` raises and
        its summary is lost.  The outcomes are then recovered once, outside
        the timed operation, by a ``run_mc`` of each estimator on its own:
        a replication's panel and its outcome do not depend on the battery.
        """
        if "estimators" in record:
            return {e["label"]: e["n_success"] for e in record["estimators"]}
        if self.recovered is None:
            self.recovered = {}
            for run in DUMMIES_BATTERY:
                config = dataclasses.replace(self.config, estimators=(run,))
                self.recovered[run.label] = self._run(self.threads, config).get(
                    "estimators", [{"n_success": 0}])[0]["n_success"]
        return self.recovered

    def calls(self, record) -> tuple[int, int]:
        ok = self.successes(record)
        attempted = self.replications * len(DUMMIES_BATTERY)
        return attempted, attempted - sum(ok.values())

    def traced_extras(self, tracer) -> tuple[int, list[str]]:
        """One serial run, in-process so its layers are traced; every
        later operation must reproduce its summary exactly."""
        with tracer.operation("serial"):
            start = time.perf_counter()
            self.serial = self._run(1)
            self.serial_s = time.perf_counter() - start
        return 1, []

    def layer_metrics(self, loop) -> dict[str, float]:
        metrics = {"mc.replication_s": self.serial_s / self.replications,
                   "mc.scaling_efficiency":
                       self.serial_s / (self.threads * loop.median(traced=False))}
        ok = self.successes(self.serial)
        for run in DUMMIES_BATTERY:
            metrics[ok_ratio_name(run)] = ok[run.label] / self.replications
        return metrics


def oracle_checks(tracer) -> list[list]:
    """Every oracle level in its own span; ``[name, passed]`` per check."""
    out = []
    for level in ORACLE_LEVELS:
        with tracer.span(f"oracle.{level}"):
            out += [[r.name, bool(r.passed)] for r in pl.run_checks([level])]
    return out


WORKLOADS = {cls.name: cls for cls in (CsvEstimate, EstimateLarge, McDesk)}
