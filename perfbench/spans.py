"""In-memory spans around calls into panel-logit's layers.

The tracer wraps the package's public functions at the module bindings
their callers look up (for example ``workflow.variance`` as called by
``estimate_panel``), so every call into a layer records a span: its name,
start, end, the span that caused it and the benchmark operation it belongs
to.  Nothing in the package changes; the wrappers are installed only around
traced operations and removed afterwards, so untraced operations run the
unmodified functions.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def summand_bytes(stats) -> int:
    """Bytes of per-individual arrays an aggregate keeps (computed from nbytes)."""
    summands = getattr(stats, "summands", None)
    if summands is None:
        return 0
    return sum(v.nbytes for v in vars(summands).values() if isinstance(v, np.ndarray))


def layer_targets(pl) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every call site the tracer wraps.

    A binding a later version of the package no longer has makes ``Tracer``
    refuse to start, so a renamed or inlined call cannot read as a layer
    that became free: update this list with the package.
    """
    cli, mc, workflow = pl.cli, pl.mc, pl.workflow
    return [
        (pl, "write_panel_csv", "panel.write"),
        (pl, "read_panel_csv", "panel.read"),
        (cli, "read_panel_csv", "panel.read"),
        (pl, "simulate_panel", "model.simulate"),
        (mc, "simulate_panel", "model.simulate"),
        (workflow, "aggregate", "aggregation.aggregate"),
        (workflow, "build_system", "estimators.build"),
        (workflow, "build_system_c", "estimators.build"),
        (workflow, "solve", "estimators.solve"),
        (workflow, "variance", "estimators.variance"),
        (workflow, "recover_original", "inference.recover"),
        (workflow, "two_step_dtd_tm1", "inference.two_step"),
        (workflow, "wald_test", "inference.wald"),
        (pl, "estimate_panel", "workflow.estimate"),
        (mc, "estimate_panel", "workflow.estimate"),
        (cli, "estimate_panel", "workflow.estimate"),
        (pl, "run_mc", "mc.run"),
    ]


class Tracer:
    """Collects spans in memory; ``to_json`` writes them out at the end."""

    def __init__(self, targets: list[tuple[object, str, str]]):
        missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets
                   if not callable(getattr(module, attr, None))]
        if missing:
            raise LookupError(f"traced call sites not found: {', '.join(missing)}")
        self.targets = targets
        self.spans: list[Span] = []
        # operation -> bytes of summands its aggregates kept
        self.summand_bytes: dict[str, int] = {}
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._op = "none"

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, self._op, name, start, end))

    def _wrapper(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == "aggregation.aggregate":
                op = tracer._op
                tracer.summand_bytes[op] = tracer.summand_bytes.get(op, 0) + summand_bytes(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, op: str):
        """Trace one benchmark operation: wrap the layers, tag its spans."""
        saved = []
        for module, attr, name in self.targets:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name))
        self._op = op
        try:
            with self.span("op"):
                yield
        finally:
            self._op = "none"
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += own[s.id]
        return out

    def to_json(self) -> dict:
        return {"spans": [vars(s) for s in self.spans],
                "summand_bytes": self.summand_bytes}
