"""Stored reference outputs and the comparison against them.

``reference.json`` holds, for each reference seed, the first operation's
output of every workload: estimates, standard errors, Wald
statistics and per-call statuses (for ``mc-desk``, the whole replication
summary).  A run on a reference seed at the stored input sizes must
reproduce the statuses, counts and labels exactly and every number within
``RTOL``; other seeds are checked only for consistency within the run.

Regenerate (from the repository root) with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"
SEEDS = range(0, 11)
# tight, yet far above the last-bit differences another BLAS kernel or a
# reordered summation leaves in a solve or a weighted variance
RTOL = 1e-8
ATOL = 1e-12


def canonical(record) -> str:
    """Exact text form of an output record: equal text, bitwise-equal values."""
    return json.dumps(record, sort_keys=True)


def compare(ref, got, path: str = "") -> list[str]:
    """Differences of ``got`` from ``ref``; keys ``got`` adds are ignored."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}/{key}: missing")
            else:
                out += compare(value, got[key], f"{path}/{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [p for k, (a, b) in enumerate(zip(ref, got)) for p in compare(a, b, f"{path}/{k}")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(ref) and math.isnan(got):
            return []
        if math.isclose(ref, got, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{path}: {got!r} differs from reference {ref!r}"]
    if ref != got or type(ref) is not type(got):
        return [f"{path}: {got!r} differs from reference {ref!r}"]
    return []


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def lookup(stored: dict, workload, seed: int):
    """The stored record for this workload and seed, or None if there is none."""
    entry = stored.get("seeds", {}).get(str(seed), {}).get(workload.name)
    if entry is None or entry["sizes"] != workload.sizes:
        return None
    return entry["record"]


def main() -> int:
    import run
    run.require_source()
    import workloads

    stored = {"rtol": RTOL, "atol": ATOL, "seeds": {}}
    with run.workdir() as wd:
        for seed in SEEDS:
            for name, make in workloads.WORKLOADS.items():
                wl = make(seed, wd)
                wl.setup()
                record = json.loads(canonical(wl.op()))
                stored["seeds"].setdefault(str(seed), {})[name] = {
                    "sizes": wl.sizes, "record": record}
                print(f"seed {seed} {name}", file=sys.stderr)
    with open(PATH, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
