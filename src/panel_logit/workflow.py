"""End-to-end estimation on a panel: aggregate, solve, weight, recover.

This is the layer the CLI and the Monte Carlo harness share.  An estimator
line is an ``EstimatorRun``, which parses, prints and refuses itself.  Every
estimator at window ``t``, family C and the two-step correction included,
reads the panel, or the history table, only through the 32 cell counts of
that window, so one call aggregates it once.  A ``stats_cache`` dict
threaded through repeated calls on the same panel keeps those aggregates by
window, so each window is counted once per panel; seeded with a window's
cells (``aggregation.from_cells``), it stands in for the panel, which is
how ``panel-logit wald`` re-runs a stored result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .aggregation import aggregate
from .estimators import (TransformedEstimate, build_system, build_system_c,
                         kept_components, parse_variant, solve, variance)
from .inference import (OriginalEstimate, TwoStepResult, WaldResult,
                        _dagger_selector, _restriction_labels, recover_original,
                        two_step_dtd_tm1, wald_test)
from .panel import PanelData, _ascii_int, _is_integer


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


@dataclass(frozen=True)
class EstimatorRun:
    """One estimator line, ``FAMILY VARIANT WINDOW [two-step] [wald=SET]``.

    ``variant`` is kept by its canonical name.  A line no panel could
    satisfy (a window not an integer, a two-step not a bool, a family,
    variant or Wald set not a ``str`` or unknown, a non-square variant, a
    Wald set off the kept components, a two-step on C or without ``d``)
    raises ``ValueError`` naming the label when the run is built.
    """

    family: str
    variant: str
    window_t: int
    two_step: bool = False
    wald: str | None = None

    def __post_init__(self):
        try:
            if not _is_integer(self.window_t):
                raise ValueError(f"window must be an integer, got {self.window_t!r}")
            if not isinstance(self.two_step, bool):
                raise ValueError(f"two_step must be a bool, got {self.two_step!r}")
            for key in ("family", "variant", "wald"):
                value = getattr(self, key)
                if not isinstance(value, str) and not (key == "wald" and value is None):
                    raise ValueError(f"{key} must be a str, got {value!r}")
            object.__setattr__(self, "window_t", int(self.window_t))
            # canonical before the rest is checked: a refusal's label shows it
            object.__setattr__(self, "variant", parse_variant(self.variant)[0])
            _, _, kept = kept_components(self.family, self.variant)
            if self.wald is not None:
                _restriction_labels(self.wald, kept)
            if self.two_step:
                _dagger_selector(self.family, self.variant, kept)
        except ValueError as exc:
            raise ValueError(f"estimator {self.label}: {exc}") from None

    @property
    def label(self) -> str:
        tag = f"{self.family}[{self.variant}]@t{self.window_t}"
        if self.two_step:
            tag += "+two-step"
        return tag

    def __str__(self) -> str:
        wald = "" if self.wald is None else f" wald={self.wald}"
        return f"{self.family} {self.variant} {self.window_t}{' two-step' * self.two_step}{wald}"

    @classmethod
    def parse(cls, line: str) -> EstimatorRun:
        """Read ``FAMILY VARIANT WINDOW [two-step] [wald=SET]``, the form
        ``str`` writes: an ASCII integer window, each option at most once."""
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"estimator line needs FAMILY VARIANT WINDOW: {line!r}")
        family, variant, window = parts[:3]
        window_t = _ascii_int(window, "estimator window")
        options: dict[str, str] = {}
        for extra in parts[3:]:
            if extra != "two-step" and not extra.startswith("wald="):
                raise ValueError(f"unknown estimator option {extra!r}")
            name, _, value = extra.partition("=")
            if name in options:
                raise ValueError(f"estimator option {name!r} given more than once: {line!r}")
            options[name] = value
        return cls(family, variant, window_t, two_step="two-step" in options,
                   wald=options.get("wald"))


def estimate_panel(panel: PanelData | np.ndarray | None, family: str, variant: str,
                   window_t: int, two_step: bool = False,
                   wald: str | None = None,
                   stats_cache: dict | None = None) -> EstimationResult:
    """Run one estimator on a panel or a history table (what
    ``aggregate`` reads) and recover the original parameters.

    ``variant`` is a variant name; ``two_step`` additionally estimates the
    effect step one period before the window (families A and B); ``wald``
    names a restriction set to test.  ``stats_cache``, one dict per panel,
    keeps its aggregates by window; a panel of ``None`` is read only from
    it.  The line is an ``EstimatorRun``, so a line no panel could satisfy
    is refused before the panel is aggregated;
    the reported ``n`` is the cells' total, the N the variance divides by.
    """
    run = EstimatorRun(family, variant, window_t, two_step, wald)
    if stats_cache is None:
        stats_cache = {}
    stats = stats_cache.get(run.window_t)
    if stats is None:
        if panel is None:
            raise ValueError(f"no panel and no cached aggregate for window {run.window_t}")
        stats = stats_cache[run.window_t] = aggregate(panel, run.window_t)

    system = (build_system_c(stats, run.variant) if run.family == "C"
              else build_system(run.family, stats, run.variant))
    alpha = solve(system)
    vcov = variance(system, alpha)
    est = TransformedEstimate(family=run.family, variant=run.variant, window_t=run.window_t,
                              n=int(system.cells.sum()), col_labels=system.col_labels,
                              alpha=alpha, vcov=vcov)
    original = recover_original(est)

    two = None
    if run.two_step:
        two = two_step_dtd_tm1(est, system)
        original = replace(original, dtd_tm1=two.dtd_tm1)

    wald_result = wald_test(est, run.wald) if run.wald else None
    return EstimationResult(transformed=est, original=original,
                            two_step=two, wald=wald_result)
