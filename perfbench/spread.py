"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median of the
runs, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the distance between the quartiles as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  Runs are sequential so they do
not disturb one another.  From the repository root::

    python3 perfbench/spread.py --seeds 0-9 --out spread.json
    python3 perfbench/spread.py --workload mc-desk --seeds 0-4
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write the runs and spreads as JSON")
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {}
    for name in names:
        runs = []
        for seed in seeds:
            result = run_once(name, seed, args.seconds)
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / median,
                                    "bound": metric["bound"], "values": values}
            print(f"{name:<16} {metric['name']:<14} median {median:>12.6g} "
                  f"q1 {q1:>12.6g} q3 {q3:>12.6g} spread {(q3 - q1) / median:7.2%} "
                  f"(bound {metric['bound']:.0%})")
        report[name] = {"seeds": seeds, "seconds": args.seconds,
                        "all_correct": all(r["correct"] for r in runs),
                        "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
