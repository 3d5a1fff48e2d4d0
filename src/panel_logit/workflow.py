"""End-to-end estimation on a panel: aggregate, solve, weight, recover.

This is the layer the CLI and the Monte Carlo harness share.  A
``stats_cache`` dict can be threaded through repeated calls on the same
panel so the panel is collapsed to its history table once: the first window
asked for aggregates the panel, every further window is built from the
cached table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregation import AggregateStats, aggregate, from_histories
from .estimators import (TransformedEstimate, Variant, build_system,
                         build_system_c, parse_variant, solve, variance)
from .inference import (OriginalEstimate, TwoStepResult, WaldResult,
                        recover_original, two_step_dtd_tm1, wald_test)
from .panel import PanelData


@dataclass(frozen=True)
class EstimationResult:
    transformed: TransformedEstimate
    original: OriginalEstimate
    two_step: TwoStepResult | None = None
    wald: WaldResult | None = None

    def to_dict(self) -> dict:
        out = {"transformed": self.transformed.to_dict(),
               "original": self.original.to_dict()}
        if self.two_step is not None:
            out["two_step"] = self.two_step.to_dict()
        if self.wald is not None:
            out["wald"] = self.wald.to_dict()
        return out


def _cached_aggregate(panel: PanelData, t: int, cache: dict) -> AggregateStats:
    if t not in cache:
        if cache:
            base = next(iter(cache.values()))
            rows = base.summands
            cache[t] = from_histories(t, rows.periods, rows.codes, rows.counts, base.n)
        else:
            cache[t] = aggregate(panel, t)
    return cache[t]


def estimate_panel(panel: PanelData, family: str, variant: Variant | str,
                   window_t: int, two_step: bool = False,
                   wald: str | None = None,
                   stats_cache: dict | None = None) -> EstimationResult:
    """Run one estimator on a panel and recover the original parameters.

    ``two_step`` additionally estimates the effect step one period before
    the window (families A and B); ``wald`` names a restriction set to test.
    ``stats_cache``, one dict per panel, keeps its window aggregates across
    calls; with or without it the panel is collapsed once per call at most.
    """
    if isinstance(variant, str):
        variant = parse_variant(variant)
    if stats_cache is None:
        stats_cache = {}

    stats_t = _cached_aggregate(panel, window_t, stats_cache)
    if family == "C":
        stats_tm1 = _cached_aggregate(panel, window_t - 1, stats_cache)
        system = build_system_c(stats_t, stats_tm1, variant)
    else:
        stats_tm1 = None
        system = build_system(family, stats_t, variant)

    alpha = solve(system)
    vcov = variance(system, alpha, stats_t, stats_tm1)
    est = TransformedEstimate(family=family, variant=variant,
                              window_t=window_t, n=system.n,
                              col_labels=system.col_labels, alpha=alpha,
                              vcov=vcov)
    original = recover_original(est)

    two = None
    if two_step:
        if family == "C":
            raise ValueError("the two-step effect step applies to families A and B")
        stats_prev = _cached_aggregate(panel, window_t - 1, stats_cache)
        two = two_step_dtd_tm1(est, system, stats_t, stats_prev)
        original = OriginalEstimate(
            family=original.family, gamma=original.gamma,
            gamma_from=original.gamma_from, dtd_t=original.dtd_t,
            dtd_tp1=original.dtd_tp1, phi_coef=original.phi_coef,
            dtd_tm1=two.dtd_tm1)

    wald_result = wald_test(est, wald) if wald else None
    return EstimationResult(transformed=est, original=original,
                            two_step=two, wald=wald_result)
