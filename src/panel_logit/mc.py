"""Replicated simulate-estimate-recover experiments with failure accounting.

Each replication draws its panel from an independent stream of the keyed
generator, so replications can run serially or across a process pool with
bitwise-identical results; summaries are reductions over the replication-
ordered records, which they keep as ``raw``.  Statistics follow the usual
reporting set: true value (``model.true_values``), Monte Carlo mean,
standard deviation (sample, ddof=1), mean and median reported standard
error, bias and root mean squared error about the truth, so that
``rmse^2 == bias^2 + sd^2 * (R-1)/R`` holds by construction.

Replications where an estimator degenerates (singular system, nonpositive
transformed estimate, ...) are excluded from the statistics and itemized in
the summary instead of poisoning it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .estimators import EstimationError
from .model import (DgpConfig, ModelSpec, TimeTrendSpec, check_periods, history_law,
                    simulate_histogram, simulate_panel, true_values)
from .panel import _is_integer
from .workflow import EstimatorRun, estimate_panel

WALD_LEVEL = 0.05


class AllReplicationsFailed(EstimationError):
    pass


SAMPLERS = ("panel", "histogram")


@dataclass(frozen=True)
class McConfig:
    """One experiment: model, data-generating process, estimators.

    Each ``EstimatorRun`` refuses its own bad line; the config refuses too
    few period effects, more periods than the histogram sampler enumerates,
    a window outside the kept periods, C on a dummies model and shared labels.
    ``sampler`` picks how each replication draws its panel: ``"panel"``
    simulates every individual (``simulate_panel``), ``"histogram"`` draws
    counts over the outcome histories (``simulate_histogram``), whose cost
    does not grow with N.  The two draw different random streams.
    """

    spec: ModelSpec
    dgp: DgpConfig
    replications: int
    estimators: tuple[EstimatorRun, ...]
    discard_prefix: int = 0
    sampler: str = "panel"

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}, got {self.sampler!r}")
        for key in ("replications", "discard_prefix"):
            if not _is_integer(getattr(self, key)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        if self.discard_prefix < 0:
            raise ValueError(f"discard_prefix must be nonnegative, got {self.discard_prefix}")
        check_periods(self.spec, self.dgp.n_periods, self.sampler == "histogram")
        # the simulated periods are 1..n_periods; the discard drops the first
        first, last = 1 + self.discard_prefix, self.dgp.n_periods
        for run in self.estimators:
            t = run.window_t
            if t - 3 < first or t + 1 > last:
                raise ValueError(f"estimator {run.label}: window {t} needs periods {t - 3}.."
                                 f"{t + 1}, the panel keeps {first}..{last} after the discard")
            if run.family == "C" and not isinstance(self.spec, TimeTrendSpec):
                raise ValueError(f"estimator {run.label} estimates the trend "
                                 "coefficient phi_coef; it needs a time-trend model")
        # summaries and raw records name each line by its label, which does
        # not show the Wald set: two lines with one label could not be told apart
        labels = [run.label for run in self.estimators]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError("estimator lines share a label (the label does not show "
                             "the Wald set): " + ", ".join(repeated))


def _run_replication(config: McConfig, r: int) -> list[dict]:
    dgp = replace(config.dgp, stream=r)
    simulate = simulate_histogram if config.sampler == "histogram" else simulate_panel
    panel = simulate(config.spec, dgp).drop_prefix(config.discard_prefix)
    stats_cache: dict = {}
    records = []
    for run in config.estimators:
        rec: dict = {"replication": r, "estimator": run.label}
        try:
            result = estimate_panel(panel, run.family, run.variant, run.window_t,
                                    two_step=run.two_step, wald=run.wald,
                                    stats_cache=stats_cache)
        except EstimationError as exc:
            rec["status"] = exc.status
            rec["message"] = str(exc)
        else:
            rec["status"] = "ok"
            rec["params"] = {n: (p.value, p.se) for n, p in result.original.params().items()}
            if result.wald is not None:
                rec["wald"] = (result.wald.statistic, result.wald.df,
                               result.wald.p_value)
        records.append(rec)
    return records


@dataclass(frozen=True)
class ParamSummary:
    true: float
    mean: float
    sd: float
    se: float
    se_median: float
    bias: float
    rmse: float


@dataclass(frozen=True)
class EstimatorSummary:
    label: str
    n_success: int
    failures: dict[str, int]
    params: dict[str, ParamSummary]
    wald_rejection_rate: float | None = None
    wald_df: int | None = None


# the columns of ``McSummary.table_rows``, the table and the summary CSV
SUMMARY_COLUMNS = ("estimator", "parameter", "true", "mean", "sd", "se", "se_median",
                   "bias", "rmse")


@dataclass(frozen=True)
class McSummary:
    replications: int
    estimators: tuple[EstimatorSummary, ...]
    raw: tuple[dict, ...]

    def table_rows(self) -> list[dict]:
        rows = []
        for est in self.estimators:
            for name, p in est.params.items():
                rows.append({"estimator": est.label, "parameter": name,
                             **{c: getattr(p, c) for c in SUMMARY_COLUMNS[2:]}})
        return rows

    def format_table(self) -> str:
        wide = SUMMARY_COLUMNS[3:]  # after estimator, parameter and true
        header = f"{'estimator':<28} {'parameter':<9} {'true':>9} " \
                 + " ".join(f"{c:>10}" for c in wide)
        lines = [header, "-" * len(header)]
        for row in self.table_rows():
            lines.append(f"{row['estimator']:<28} {row['parameter']:<9} {row['true']:>9.4f} "
                         + " ".join(f"{row[c]:>10.5f}" for c in wide))
        for est in self.estimators:
            fails = ", ".join(f"{k}={v}" for k, v in sorted(est.failures.items())) or "none"
            extra = ""
            if est.wald_rejection_rate is not None:
                extra = (f"; wald rejection at {WALD_LEVEL:.0%}: "
                         f"{est.wald_rejection_rate:.4f} (df={est.wald_df})")
            lines.append(f"{est.label}: {est.n_success} ok, failures: {fails}{extra}")
        return "\n".join(lines)


def resolve_threads(threads: int | None, source: str = "threads") -> int:
    """Worker count: ``threads``, else the CPUs this process may run on
    (its affinity mask, which ``taskset`` or a cpuset narrows).

    Raises ``ValueError`` naming ``source`` when ``threads`` is not a whole
    number of at least 1.
    """
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not _is_integer(threads) or threads < 1:
        raise ValueError(f"{source} must be a whole number of at least 1, got {threads!r}")
    return int(threads)


def run_mc(config: McConfig, threads: int | None = None) -> McSummary:
    """Run the replications and summarize per estimator and parameter.

    The summary, its replication-ordered ``raw`` records included, is a
    pure function of ``config``: the worker count only changes how
    replications are scheduled, never their streams or the reduction order.
    """
    # a pool starts all its workers at once: no more than there is work for
    n_workers = min(resolve_threads(threads), config.replications)
    reps = range(config.replications)
    if n_workers == 1:
        per_rep = [_run_replication(config, r) for r in reps]
    else:
        if config.sampler == "histogram":  # forked workers inherit the cached law
            history_law(config.spec, config.dgp.n_periods, config.dgp.sigma_eta_sq)
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            chunk = max(1, config.replications // (8 * n_workers))
            per_rep = list(pool.map(_run_replication, [config] * config.replications,
                                    reps, chunksize=chunk))

    summaries = tuple(_summarize(config, run, [recs[idx] for recs in per_rep])
                      for idx, run in enumerate(config.estimators))
    return McSummary(replications=config.replications, estimators=summaries,
                     raw=tuple(rec for recs in per_rep for rec in recs))


def _summarize(config: McConfig, run: EstimatorRun,
               records: list[dict]) -> EstimatorSummary:
    ok = [rec for rec in records if rec["status"] == "ok"]
    failures: dict[str, int] = {}
    for rec in records:
        if rec["status"] != "ok":
            failures[rec["status"]] = failures.get(rec["status"], 0) + 1
    if not ok:
        raise AllReplicationsFailed(
            f"{run.label}: all {len(records)} replications failed: {failures}")

    truths = true_values(config.spec, run.family, run.window_t, run.two_step)
    params: dict[str, ParamSummary] = {}
    for name, true in truths.items():
        values = np.array([rec["params"][name][0] for rec in ok])
        ses = np.array([rec["params"][name][1] for rec in ok])
        mean = float(np.mean(values))
        sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        params[name] = ParamSummary(
            true=float(true), mean=mean, sd=sd, se=float(np.mean(ses)),
            se_median=float(np.median(ses)), bias=mean - float(true),
            rmse=float(np.sqrt(np.mean((values - true) ** 2))))

    rej = df = None
    if run.wald is not None:
        pvals = np.array([rec["wald"][2] for rec in ok])
        rej = float(np.mean(pvals < WALD_LEVEL))
        df = int(ok[0]["wald"][1])
    return EstimatorSummary(label=run.label, n_success=len(ok),
                            failures=failures, params=params,
                            wald_rejection_rate=rej, wald_df=df)
