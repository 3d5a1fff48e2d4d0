"""Replicated simulate-estimate-recover experiments with failure accounting.

Each replication draws its panel from an independent stream of the keyed
generator, so replications can run serially or across a process pool with
bitwise-identical results; summaries are reductions over the replication-
ordered records.  Statistics follow the usual reporting set: true value,
Monte Carlo mean, standard deviation (sample, ddof=1), mean and median
reported standard error, bias and root mean squared error about the truth,
so that ``rmse^2 == bias^2 + sd^2 * (R-1)/R`` holds by construction.

Replications where an estimator degenerates (singular system, nonpositive
transformed estimate, ...) are excluded from the statistics and itemized in
the summary instead of poisoning it.
"""

from __future__ import annotations

import ctypes
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from .estimators import EstimationError, SingularSystem, SingularWeight
from .inference import NonpositiveAlpha, NonpositivePhiHat, ZeroDenominator
from .model import (DgpConfig, ModelSpec, TimeTrendSpec, simulate_histogram,
                    simulate_panel)
from .workflow import check_estimator, estimate_panel

WALD_LEVEL = 0.05


class AllReplicationsFailed(EstimationError):
    pass


@dataclass(frozen=True)
class EstimatorRun:
    """One estimator configuration evaluated in every replication."""

    family: str
    variant: str
    window_t: int
    two_step: bool = False
    wald: str | None = None

    @property
    def label(self) -> str:
        tag = f"{self.family}[{self.variant}]@t{self.window_t}"
        if self.two_step:
            tag += "+two-step"
        return tag


SAMPLERS = ("panel", "histogram")


@dataclass(frozen=True)
class McConfig:
    """One experiment: model, data-generating process, estimators.

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
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not self.estimators:
            raise ValueError("need at least one estimator")
        if self.discard_prefix < 0:
            raise ValueError(f"discard_prefix must be nonnegative, got {self.discard_prefix}")
        # the simulated periods are 1..n_periods; the discard drops the first
        first, last = 1 + self.discard_prefix, self.dgp.n_periods
        for run in self.estimators:
            t = run.window_t
            try:
                check_estimator(run.family, run.variant, run.two_step, run.wald)
                if t - 3 < first or t + 1 > last:
                    raise ValueError(f"window {t} needs periods {t - 3}..{t + 1}, the "
                                     f"panel keeps {first}..{last} after the discard")
            except ValueError as exc:
                raise ValueError(f"estimator {run.label}: {exc}") from None
            if run.family == "C" and not isinstance(self.spec, TimeTrendSpec):
                raise ValueError(f"estimator {run.label} estimates the trend "
                                 "coefficient phi_coef; it needs a time-trend model")


def true_values(spec: ModelSpec, run: EstimatorRun) -> dict[str, float]:
    """True original parameters reported by an estimator configuration."""
    t = run.window_t
    if run.family == "C":
        return {"gamma": spec.gamma, "phi_coef": spec.phi_coef}
    out = {"gamma": spec.gamma,
           "dtd_t": spec.effect_step(t),
           "dtd_tp1": spec.effect_step(t + 1)}
    if run.two_step:
        out["dtd_tm1"] = spec.effect_step(t - 1)
    return out


_FAILURE_NAMES = {
    SingularSystem: "singular_system",
    SingularWeight: "singular_weight",
    NonpositiveAlpha: "nonpositive_alpha",
    ZeroDenominator: "two_step_zero_denominator",
    NonpositivePhiHat: "two_step_nonpositive",
}


def _failure_name(exc: EstimationError) -> str:
    for cls, name in _FAILURE_NAMES.items():
        if isinstance(exc, cls):
            return name
    return "estimation_error"


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
            rec["status"] = _failure_name(exc)
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


@dataclass(frozen=True)
class McSummary:
    replications: int
    estimators: tuple[EstimatorSummary, ...]
    raw: tuple[dict, ...] | None = None

    def table_rows(self) -> list[dict]:
        rows = []
        for est in self.estimators:
            for name, p in est.params.items():
                rows.append({"estimator": est.label, "parameter": name,
                             "true": p.true, "mean": p.mean, "sd": p.sd,
                             "se": p.se, "se_median": p.se_median,
                             "bias": p.bias, "rmse": p.rmse})
        return rows

    def format_table(self) -> str:
        header = f"{'estimator':<28} {'parameter':<9} {'true':>9} {'mean':>10} " \
                 f"{'sd':>10} {'se':>10} {'se_median':>10} {'bias':>10} {'rmse':>10}"
        lines = [header, "-" * len(header)]
        for row in self.table_rows():
            lines.append(
                f"{row['estimator']:<28} {row['parameter']:<9} {row['true']:>9.4f} "
                f"{row['mean']:>10.5f} {row['sd']:>10.5f} {row['se']:>10.5f} "
                f"{row['se_median']:>10.5f} {row['bias']:>10.5f} {row['rmse']:>10.5f}")
        for est in self.estimators:
            fails = ", ".join(f"{k}={v}" for k, v in sorted(est.failures.items())) or "none"
            extra = ""
            if est.wald_rejection_rate is not None:
                extra = (f"; wald rejection at {WALD_LEVEL:.0%}: "
                         f"{est.wald_rejection_rate:.4f} (df={est.wald_df})")
            lines.append(f"{est.label}: {est.n_success} ok, failures: {fails}{extra}")
        return "\n".join(lines)


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get("PANEL_LOGIT_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _one_blas_thread() -> None:
    """Pool initializer: run the OpenBLAS builds bundled with numpy and scipy
    on one thread each.

    A forked worker keeps the parent's BLAS thread count, so ``n`` workers
    would otherwise start ``n`` times that many BLAS threads on the same
    cores.  A BLAS that is not a bundled OpenBLAS is left as it is.

    The pin pays: without it, the mc-desk benchmark's median operation
    (``run_mc`` at N = 2e5, R = 8, two workers on 2 cores) went from
    0.46-0.49 s to 0.73-0.84 s in five alternating 10 s pairs.
    """
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in libs.glob("*openblas*"):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"),
                                                    ("64_", "")):
                set_threads = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if set_threads is not None:
                    set_threads.argtypes = [ctypes.c_int]
                    set_threads.restype = None
                    set_threads(1)
                    break


def run_mc(config: McConfig, threads: int | None = None,
           keep_raw: bool = False) -> McSummary:
    """Run the replications and summarize per estimator and parameter.

    The summary is a pure function of ``config``: the worker count only
    changes how replications are scheduled, never their streams or the
    reduction order.  Pool workers run BLAS on one thread each; the calling
    process keeps its own setting.
    """
    # a pool starts all its workers at once: no more than there is work for
    n_workers = min(resolve_threads(threads), config.replications)
    reps = range(config.replications)
    if n_workers == 1:
        per_rep = [_run_replication(config, r) for r in reps]
    else:
        with ProcessPoolExecutor(max_workers=n_workers,
                                 initializer=_one_blas_thread) as pool:
            chunk = max(1, config.replications // (8 * n_workers))
            per_rep = list(pool.map(_run_replication, [config] * config.replications,
                                    reps, chunksize=chunk))

    summaries = []
    for idx, run in enumerate(config.estimators):
        records = [recs[idx] for recs in per_rep]
        summaries.append(_summarize(config, run, records))
    raw = tuple(rec for recs in per_rep for rec in recs) if keep_raw else None
    return McSummary(replications=config.replications,
                     estimators=tuple(summaries), raw=raw)


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

    truths = true_values(config.spec, run)
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
