"""End-to-end estimation on a panel: aggregate, solve, weight, recover.

This is the layer the CLI and the Monte Carlo harness share.  Every
estimator at window ``t``, family C and the two-step correction included,
reads the panel only through the 32 cell counts of that window, so one call
aggregates the panel once.  A ``stats_cache`` dict threaded through repeated
calls on the same panel keeps those aggregates by window, so each window is
counted once per panel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregation import aggregate
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


def estimate_panel(panel: PanelData, family: str, variant: Variant | str,
                   window_t: int, two_step: bool = False,
                   wald: str | None = None,
                   stats_cache: dict | None = None) -> EstimationResult:
    """Run one estimator on a panel and recover the original parameters.

    ``two_step`` additionally estimates the effect step one period before
    the window (families A and B); ``wald`` names a restriction set to test.
    ``stats_cache``, one dict per panel, keeps the aggregates built by
    ``aggregate`` across calls, keyed by window.
    """
    if isinstance(variant, str):
        variant = parse_variant(variant)
    if stats_cache is None:
        stats_cache = {}
    stats = stats_cache.get(window_t)
    if stats is None:
        stats = stats_cache[window_t] = aggregate(panel, window_t)

    if family == "C":
        system = build_system_c(stats, variant)
    else:
        system = build_system(family, stats, variant)

    alpha = solve(system)
    vcov = variance(system, alpha)
    est = TransformedEstimate(family=family, variant=variant,
                              window_t=window_t, n=system.n,
                              col_labels=system.col_labels, alpha=alpha,
                              vcov=vcov)
    original = recover_original(est)

    two = None
    if two_step:
        two = two_step_dtd_tm1(est, system)
        original = OriginalEstimate(
            family=original.family, gamma=original.gamma,
            gamma_from=original.gamma_from, dtd_t=original.dtd_t,
            dtd_tp1=original.dtd_tp1, phi_coef=original.phi_coef,
            dtd_tm1=two.dtd_tm1)

    wald_result = wald_test(est, wald) if wald else None
    return EstimationResult(transformed=est, original=original,
                            two_step=two, wald=wald_result)
