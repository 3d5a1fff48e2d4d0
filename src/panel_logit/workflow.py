"""End-to-end estimation on a panel: aggregate, solve, weight, recover.

This is the layer the CLI and the Monte Carlo harness share.  Every
estimator at window ``t``, family C and the two-step correction included,
reads the panel only through the 32 cell counts of that window, so one call
aggregates the panel once.  A ``stats_cache`` dict threaded through repeated
calls on the same panel keeps those aggregates by window, so each window is
counted once per panel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .aggregation import aggregate
from .estimators import (TransformedEstimate, Variant, build_system,
                         build_system_c, kept_components, parse_variant, solve,
                         variance)
from .inference import (RESTRICTION_SETS, OriginalEstimate, TwoStepResult,
                        WaldResult, recover_original, two_step_dtd_tm1, wald_test)
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


def check_estimator(family: str, variant: Variant | str, two_step: bool = False,
                    wald: str | None = None) -> Variant:
    """Refuse an estimator line no panel could satisfy (a non-square system,
    a Wald set off the kept components, a two-step on C or without ``d``);
    return its variant."""
    if isinstance(variant, str):
        variant = parse_variant(variant)
    _, kept = kept_components(family, variant)
    if wald is not None:
        if wald not in RESTRICTION_SETS:
            raise ValueError(f"unknown restriction set {wald!r}; "
                             f"choose from {sorted(RESTRICTION_SETS)}")
        labels, _ = RESTRICTION_SETS[wald]
        if labels != kept:
            raise ValueError(f"restriction set {wald!r} expects "
                             f"components {labels}, the variant keeps {kept}")
    if two_step and family == "C":
        raise ValueError("the two-step effect step applies to families A and B")
    if two_step and "d" not in kept:
        raise ValueError(f"variant {variant.name!r} drops component 'd'; "
                         "the second step is unavailable")
    return variant


def estimate_panel(panel: PanelData, family: str, variant: Variant | str,
                   window_t: int, two_step: bool = False,
                   wald: str | None = None,
                   stats_cache: dict | None = None) -> EstimationResult:
    """Run one estimator on a panel and recover the original parameters.

    ``two_step`` additionally estimates the effect step one period before
    the window (families A and B); ``wald`` names a restriction set to test.
    ``stats_cache``, one dict per panel, keeps the aggregates built by
    ``aggregate`` across calls, keyed by window.  The line is checked
    (``check_estimator``) before the panel is aggregated.
    """
    variant = check_estimator(family, variant, two_step, wald)
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
        original = replace(original, dtd_tm1=two.dtd_tm1)

    wald_result = wald_test(est, wald) if wald else None
    return EstimationResult(transformed=est, original=original,
                            two_step=two, wald=wald_result)
