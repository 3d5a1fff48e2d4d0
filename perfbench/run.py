"""panel-logit benchmark: one command per workload, metrics with units.

Run from the root of a checkout::

    python3 perfbench/run.py --workload csv-estimate --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the root
names the metrics and their units.  Load is a closed loop: one caller issues
the next operation when the previous one returns, for ``--seconds``.  Every
operation's output is checked (against the first operation of the run, the
stored reference outputs of ``reference.json`` on reference seeds, and each
workload's own invariants).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that alternates untraced and traced operations, records spans around
every call into the package's layers (``spans.py``) and reports the
per-layer metrics, including the tracing overhead.  Both print one line per
metric, then the run's environment, and as the last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, op samples, spans) is written under ``.perfbench-out/``
when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def require_source():
    """Import panel_logit from this checkout's ``src``, or exit nonzero."""
    if not (SRC / "panel_logit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'panel_logit'}; "
                 "run from the root of a panel-logit checkout")
    sys.path.insert(0, str(SRC))
    import panel_logit
    if not Path(panel_logit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported panel_logit from {panel_logit.__file__}, "
                 f"not from {SRC}")
    return panel_logit


@contextlib.contextmanager
def workdir():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as path:
        yield Path(path)


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import panel_logit"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return time.perf_counter() - start


def blas_info() -> list[dict]:
    """BLAS libraries bundled with numpy and scipy, and the thread count each
    reports.  The benchmark never sets BLAS threads: it records them."""
    import numpy
    import scipy
    out = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            row = {"package": pkg.__name__, "library": Path(path).name}
            try:
                lib = ctypes.CDLL(path)
            except OSError as exc:
                row["error"] = str(exc)
                out.append(row)
                continue
            for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"),
                                                    ("64_", "")):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    row["threads"] = get_threads()
                    row["config"] = get_config().decode()
                    break
            out.append(row)
    return out


def env_info() -> dict:
    import numpy
    import scipy
    return {
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@dataclass
class Loop:
    """Samples of the closed loop; ``traced`` marks the traced operations."""

    durations: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    items: int = 0
    calls: int = 0
    degenerate: int = 0

    def median(self, traced: bool | None = None) -> float:
        return statistics.median(d for d, t in zip(self.durations, self.traced)
                                 if traced is None or t == traced)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with ``min(10, n // 4)``
    samples beyond it.  From 40 samples on this is the highest percentile
    with at least ten samples beyond it; below 21 samples no such percentile
    lies above the median, so fewer runs keep a quarter of the samples
    beyond the tail rather than report their noisy maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    k = min(10, n // 4)
    return ordered[n - 1 - k], 100.0 * (n - k) / n


def per_call(stats: dict, name: str) -> float:
    """Mean self time per call of the spans named ``name``; 0 if none."""
    row = stats.get(name)
    return row["self_s"] / row["calls"] if row else 0.0


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, wl, seconds: float, traced: bool, reference: dict | None):
        self.wl = wl
        self.seconds = seconds
        self.tracer = None
        if traced:
            import panel_logit
            self.tracer = spans.Tracer(spans.layer_targets(panel_logit))
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.loop = Loop()

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems
        for p in problems[:5]:
            print(f"perfbench: {self.wl.name}: {p}", file=sys.stderr)

    def setup(self) -> None:
        for k in range(SETUP_REPEATS):
            imp = import_seconds()
            scope = (self.tracer.operation(f"setup-{k}") if self.tracer
                     else contextlib.nullcontext())
            with scope:
                start = time.perf_counter()
                self.wl.setup()
                self.setup_s.append(imp + time.perf_counter() - start)

    def check(self, record) -> list[str]:
        problems = self.wl.check(record)
        text = reference.canonical(record)
        if self.first is None:
            self.first = text
            if self.reference is not None:
                problems += reference.compare(self.reference, json.loads(text))
        elif text != self.first:
            problems.append("output differs from the run's first operation")
        return problems

    def measure(self) -> None:
        import workloads
        deadline = time.perf_counter() + self.seconds
        if self.tracer:
            ops, problems = self.wl.traced_extras(self.tracer)
            with self.tracer.operation("oracle"):
                self.checks = workloads.oracle_checks(self.tracer)
            problems += [f"oracle check failed: {name}" for name, ok in self.checks if not ok]
            self.attempted += ops + 1
            if problems:
                self.fail(problems)
        i = 0
        while True:
            traced = self.tracer is not None and i % 2 == 1
            self.attempted += 1
            scope = self.tracer.operation(f"op-{i}") if traced else contextlib.nullcontext()
            try:
                with scope:
                    start = time.perf_counter()
                    record = self.wl.op()
                    elapsed = time.perf_counter() - start
            except Exception:
                self.fail([traceback.format_exc()])
            else:
                problems = self.check(record)
                if problems:
                    self.fail(problems)
                self.loop.durations.append(elapsed)
                self.loop.traced.append(traced)
                self.loop.items += self.wl.items(record)
                calls, degenerate = self.wl.calls(record)
                self.loop.calls += calls
                self.loop.degenerate += degenerate
            i += 1
            # a traced run needs one traced and one untraced operation
            if time.perf_counter() >= deadline and (self.tracer is None or i >= 2):
                break

    def end_to_end(self) -> dict[str, float]:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        value, _ = tail(self.loop.durations)
        return {
            "setup_s": statistics.median(self.setup_s),
            "op_p50_s": statistics.median(self.loop.durations),
            "op_tail_s": value,
            "items_per_s": self.loop.items / sum(self.loop.durations),
            "peak_rss_mb": (own + children) / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        import workloads
        tracer, loop, wl = self.tracer, self.loop, self.wl
        stats = tracer.layer_stats()
        layer_ops = ({wl.layer_op} if wl.layer_op
                     else {f"op-{i}" for i, t in enumerate(loop.traced) if t})
        windows = sum(1 for s in tracer.spans
                      if s.name == "aggregation.aggregate" and s.op in layer_ops)
        summand = sum(tracer.summand_bytes.get(op, 0) for op in layer_ops)
        read_s = per_call(stats, "panel.read")
        metrics = {
            "panel.write_s": per_call(stats, "panel.write"),
            "panel.read_s": read_s,
            "panel.read_bytes_per_s": getattr(wl, "csv_bytes", 0) / read_s if read_s else 0.0,
            "model.simulate_s": per_call(stats, "model.simulate"),
            "aggregation.aggregate_s": per_call(stats, "aggregation.aggregate"),
            "aggregation.windows": windows / len(layer_ops),
            "aggregation.summand_bytes": summand / len(layer_ops),
            "workflow.glue_s": per_call(stats, "workflow.estimate"),
            "workflow.degenerate_share": loop.degenerate / loop.calls if loop.calls else 0.0,
            "cli.overhead_s": per_call(stats, "cli.main"),
            "trace.overhead_s": loop.median(traced=True) - loop.median(traced=False),
            "mc.replication_s": 0.0,
            "mc.scaling_efficiency": 0.0,
        }
        for layer in ("estimators.build", "estimators.solve", "estimators.variance",
                      "inference.recover", "inference.two_step", "inference.wald"):
            metrics[f"{layer}_s"] = per_call(stats, layer)
        for run in workloads.DUMMIES_BATTERY:
            metrics[workloads.ok_ratio_name(run)] = 0.0
        for level in workloads.ORACLE_LEVELS:
            metrics[f"oracle.{level}_s"] = per_call(stats, f"oracle.{level}")
        metrics["oracle.checks_passed"] = sum(ok for _, ok in self.checks)
        metrics.update(wl.layer_metrics(loop))
        return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(make, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``make(seed, workdir)``, measure it, print its metrics and
    return the result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    with workdir() as wd:
        wl = make(seed, wd)
        ref = reference.lookup(reference.load(), wl, seed)
        runner = Runner(wl, seconds, trace, ref)
        runner.setup()
        runner.measure()
    values = runner.per_layer() if trace else runner.end_to_end()
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                 "disagree with BENCHMARK.json")

    loop = runner.loop
    env = env_info()
    print(f"workload {wl.name}  seed {seed}  trace {int(trace)}  "
          f"ops {len(loop.durations)}  threads {getattr(wl, 'threads', 1)}")
    for name in units:
        print(f"  {name:<40} {values[name]:>16.6g} {units[name]}")
    _, pct = tail(loop.durations)
    print(f"  op tail is p{pct:.1f} of {len(loop.durations)} samples; "
          f"items are {wl.item}")
    print(f"  error_share {runner.failed}/{runner.attempted} ops; degenerate_share "
          f"{loop.degenerate}/{loop.calls} estimator calls")
    print(f"  reference outputs {'checked' if ref is not None else 'not stored for this seed'}")
    print("env " + json.dumps(env, sort_keys=True))

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "env": env, "sizes": wl.sizes,
              "setup_s": runner.setup_s, "op_s": loop.durations,
              "op_traced": loop.traced, "problems": runner.problems,
              "metrics": values}
    if runner.tracer is not None:
        record["layers"] = runner.tracer.layer_stats()
        record.update(runner.tracer.to_json())
    out = out_dir / f"{wl.name}.seed{seed}.trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    result = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                          args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
