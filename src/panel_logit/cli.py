"""Command-line front end: simulate, estimate, mc, verify, wald.

Configuration is a flat ``key = value`` text file with ``#`` comments, read
as each key's lines in file order; only ``estimator`` may have more than
one (a Monte Carlo config's estimators).  Each value has one source: the
model, the sizes and the seed come from the config or the manifest alone,
and no flag overrides them (``--threads`` sets only the worker count, which
no output shows).  Beside ``model``, the model and DGP keys are the fields
of the model's spec (``TimeDummiesSpec`` or ``TimeTrendSpec``) and of
``DgpConfig``: each key is read by its field's type, a missing key takes
the field's default, and a manifest records the fields of the objects
built.  An integer is read in ASCII digits, and a float as ``float`` reads
it but for underscores and non-ASCII characters, which are refused naming
the key.  ``estimate`` takes its panel and estimator from flags and records
them as the keys ``panel`` and ``estimator`` (the line ``EstimatorRun``
writes); ``estimate --from-manifest`` refuses those flags.  A command reads
``--config`` or ``--from-manifest``, never both.  A key the command does
not read is refused, so a misspelt key cannot fall back to its default.
``simulate`` also reads a Monte Carlo config and writes the panel of its
replication ``stream`` (0 by default), before the discarded prefix.

An ``estimate`` result holds the window's 32 cell counts as ``cells``
beside the estimates.  Every number in it is a function of those cells and
the manifest's estimator line, so ``wald`` re-runs that line, its Wald set
replaced, on the cells; it reads nothing else of the result and refuses
one without ``cells``.

Every data output is paired with a ``<output>.manifest.json`` sidecar
holding the command, the fully resolved configuration and the tool version,
plus wall-clock timing.  Timing is the only non-reproducible entry and
lives exclusively in the sidecar: the data files themselves are bitwise
reproducible, and ``--from-manifest`` re-runs a command from a sidecar
alone.  JSON data outputs additionally embed the deterministic part of
their manifest.

Exit codes: 0 success, 1 verification or estimation failure, 2 usage or
configuration error (argparse's, or any ``ValueError``, ``OSError`` or
``csv.Error``, printed as ``error: <text>``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .aggregation import _table_cells, from_cells
from .estimators import EstimationError
from .inference import RESTRICTION_SETS
from .mc import SUMMARY_COLUMNS, AllReplicationsFailed, McConfig, resolve_threads, run_mc
from .model import DgpConfig, ModelSpec, TimeDummiesSpec, TimeTrendSpec, simulate_panel
from .oracle import CHECK_LEVELS, format_report, run_checks
from .panel import _ascii_int, read_panel_csv, write_panel_csv
from .workflow import EstimatorRun, estimate_panel


# ---------------------------------------------------------------------------
# flat key=value configuration


def parse_config_file(path: str) -> dict[str, list[str]]:
    """Parse ``key = value`` lines into each key's values, in file order."""
    out: dict[str, list[str]] = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            out.setdefault(key.strip(), []).append(value.strip())
    return out


def _values(cfg: dict, key: str) -> list[str]:
    """The texts of ``key``, one per line of a config file: a manifest's
    null, bool, object or list holding a non-string is refused."""
    values = cfg[key]
    if not (isinstance(values, list) and values and all(isinstance(v, str) for v in values)):
        raise ValueError(f"config key {key!r} must be a string, a number or "
                         f"a list of strings, got {values!r}")
    return values


def _get(cfg: dict, key: str, cast):
    if key not in cfg:
        raise ValueError(f"missing config key {key!r}")
    values = _values(cfg, key)
    if len(values) > 1:
        raise ValueError(f"config key {key!r} given more than once")
    try:
        return cast(values[0])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc


def _ascii_float(text: str) -> float:
    """``text`` read as ``float`` reads it, ``nan`` and ``inf`` included,
    but refusing the underscores and non-ASCII digits it also reads."""
    if "_" in text or not text.isascii():
        raise ValueError(f"value must be a number in ASCII without underscores, got {text!r}")
    return float(text)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(map(_ascii_float, text.replace(",", " ").split()))


_MODELS = {"dummies": TimeDummiesSpec, "trend": TimeTrendSpec}
# a field's type, as its annotation spells it -> the reader of its key's text
_READERS = {"int": _ascii_int, "float": _ascii_float, "tuple[float, ...]": _float_list}


def _from_fields(cls, cfg: dict):
    """The dataclass ``cls`` built from the config keys named as its
    fields, each read by its field's type; a field's default stands in
    for a missing key."""
    return cls(**{f.name: _get(cfg, f.name, _READERS[f.type])
                  for f in dataclasses.fields(cls)
                  if f.name in cfg or f.default is dataclasses.MISSING})


def _fields_config(obj) -> dict:
    """The config entries of a dataclass's fields, a tuple as its line's text."""
    return {key: " ".join(map(repr, v)) if isinstance(v, tuple) else v
            for key, v in dataclasses.asdict(obj).items()}


def _estimators_from_config(cfg: dict) -> tuple[EstimatorRun, ...]:
    if "estimator" not in cfg:
        raise ValueError("missing 'estimator' lines "
                         "(format: estimator = FAMILY VARIANT WINDOW [two-step] [wald=SET])")
    return tuple(EstimatorRun.parse(line) for line in _values(cfg, "estimator"))


# ---------------------------------------------------------------------------
# manifests


def _manifest_core(command: str, config: dict) -> dict:
    return {"command": command, "version": __version__, "config": config}


def _write_sidecar(out_path: str, core: dict, elapsed: float) -> None:
    sidecar = dict(core)
    sidecar["timing"] = {"elapsed_seconds": elapsed}
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_manifest(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load manifest {path}: {exc}") from exc
    if not (isinstance(manifest, dict) and "command" in manifest
            and isinstance(manifest.get("config"), dict)):
        raise ValueError(f"manifest {path} needs a 'command' and a 'config' object")
    if manifest["command"] != command:
        raise ValueError(f"manifest {path} is from {manifest['command']!r}, "
                         f"not {command!r}")
    return manifest


def _load_config(args, command: str) -> dict:
    """The lines of each key of ``args.config``, or of a manifest's config:
    a string or number there is the one line a config file gives."""
    config = getattr(args, "config", None)     # estimate reads only manifests
    if args.from_manifest and config:
        raise ValueError(f"{command} takes --config or --from-manifest, not both")
    if not args.from_manifest:
        if not config:
            raise ValueError(f"{command} needs --config or --from-manifest")
        return parse_config_file(config)
    manifest = _load_manifest(args.from_manifest, command)
    # any other value stays as it is, for _values to refuse if it is read
    return {k: [str(v)] if isinstance(v, (str, int, float)) and not isinstance(v, bool) else v
            for k, v in manifest["config"].items()}


def _model_and_dgp(cfg: dict) -> tuple[ModelSpec, DgpConfig, dict]:
    """Model spec and DGP of a config, with their resolved manifest entries."""
    model = _get(cfg, "model", str)
    if model not in _MODELS:
        raise ValueError(f"model must be {' or '.join(map(repr, _MODELS))}, got {model!r}")
    spec, dgp = _from_fields(_MODELS[model], cfg), _from_fields(DgpConfig, cfg)
    return spec, dgp, {"model": model, **_fields_config(spec), **_fields_config(dgp)}


_EXPERIMENT_KEYS = ("replications", "discard_prefix", "estimator")


def _refuse_unread(cfg: dict, command: str, read: list[str]) -> None:
    unread = sorted(set(cfg) - set(read))
    if unread:
        raise ValueError(f"{command} does not read config keys: "
                         + ", ".join(repr(k) for k in unread))


def _refuse_overwrite(reads: dict[str, str | None], writes: dict[str, str | None]) -> None:
    """Refuse an output path that resolves to a file the command reads or
    to another output, before anything is computed or written."""
    named = {os.path.realpath(path): f"{name} {path}" for name, path in reads.items() if path}
    for name, path in writes.items():
        if path:
            real = os.path.realpath(path)
            if real in named:
                raise ValueError(f"{name} {path} names the same file as {named[real]}")
            named[real] = f"{name} {path}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    _refuse_overwrite({"--config": args.config, "--from-manifest": args.from_manifest},
                      {"--out": args.out})
    cfg = _load_config(args, "simulate")
    spec, dgp, resolved = _model_and_dgp(cfg)
    _refuse_unread(cfg, "simulate", [*resolved, *_EXPERIMENT_KEYS])
    start = time.perf_counter()
    panel = simulate_panel(spec, dgp)
    write_panel_csv(panel, args.out)
    _write_sidecar(args.out, _manifest_core("simulate", resolved),
                   time.perf_counter() - start)
    print(f"wrote {panel.n * panel.n_periods} rows to {args.out}")
    return 0


_ESTIMATOR_FLAGS = (("panel", "PANEL"), ("family", "--family"), ("variant", "--variant"),
                    ("window", "--window"), ("wald", "--wald"))


def _cmd_estimate(args) -> int:
    if args.from_manifest:
        given = [flag for attr, flag in _ESTIMATOR_FLAGS if getattr(args, attr) is not None]
        if args.two_step:
            given.append("--two-step")
        if given:
            raise ValueError("--from-manifest takes the panel and estimator from the "
                             "manifest; drop " + ", ".join(given))
        cfg = _load_config(args, "estimate")
        _refuse_unread(cfg, "estimate", ["panel", "estimator"])
        panel_path = _get(cfg, "panel", str)
        run = _get(cfg, "estimator", EstimatorRun.parse)
    else:
        if not (args.panel and args.family and args.variant and args.window is not None):
            raise ValueError("estimate needs PANEL --family --variant --window")
        panel_path = args.panel
        run = EstimatorRun(args.family, args.variant, args.window,
                           two_step=args.two_step, wald=args.wald)
    _refuse_overwrite({"PANEL": panel_path, "--from-manifest": args.from_manifest},
                      {"--out": args.out})
    panel = read_panel_csv(panel_path)

    core = _manifest_core("estimate", {"panel": panel_path, "estimator": str(run)})
    start = time.perf_counter()
    stats_cache: dict = {}
    result = estimate_panel(panel, run.family, run.variant, run.window_t,
                            two_step=run.two_step, wald=run.wald, stats_cache=stats_cache)
    # the counts are exact integers in float64
    cells = [int(c) for c in stats_cache[run.window_t].summands.counts]
    payload = {"manifest": core, "cells": cells, **result.to_dict()}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _write_sidecar(args.out, core, time.perf_counter() - start)
    else:
        sys.stdout.write(text)
    return 0


def _mc_summary_csv(summary, path: str) -> None:
    """The table's rows, each with what the table prints below them of its
    estimator: successes, failures and the Wald rejection rate (empty
    without a Wald set)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*SUMMARY_COLUMNS, "n_success", "failures", "wald_rejection_rate"])
        for est in summary.estimators:
            rate = "" if est.wald_rejection_rate is None else repr(est.wald_rejection_rate)
            for name, p in est.params.items():
                writer.writerow([est.label, name,
                                 *(repr(getattr(p, c)) for c in SUMMARY_COLUMNS[2:]),
                                 est.n_success, est.failures_text, rate])


def _mc_raw_csv(summary, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replication", "estimator", "status", "parameter",
                         "estimate", "se", "wald_stat", "wald_df", "wald_p", "message"])
        for rec in summary.raw:
            if rec["status"] != "ok":
                writer.writerow([rec["replication"], rec["estimator"],
                                 rec["status"], "", "", "", "", "", "", rec["message"]])
                continue
            wald = rec.get("wald")
            for name, (value, se) in rec["params"].items():
                writer.writerow([rec["replication"], rec["estimator"], "ok", name,
                                 repr(value), repr(se),
                                 repr(wald[0]) if wald else "",
                                 wald[1] if wald else "",
                                 repr(wald[2]) if wald else "", ""])
                wald = None  # only on the first row of the record


def _cmd_mc(args) -> int:
    threads = resolve_threads(args.threads, "--threads")
    _refuse_overwrite({"--config": args.config, "--from-manifest": args.from_manifest},
                      {"--out": args.out, "--raw": args.raw})
    cfg = _load_config(args, "mc")
    spec, dgp, resolved = _model_and_dgp(cfg)
    del resolved["stream"]   # each replication draws its own
    _refuse_unread(cfg, "mc", [*resolved, *_EXPERIMENT_KEYS])
    runs = _estimators_from_config(cfg)
    config = McConfig(spec=spec, dgp=dgp,
                      replications=_get(cfg, "replications", _ascii_int),
                      estimators=runs,
                      discard_prefix=(_get(cfg, "discard_prefix", _ascii_int)
                                      if "discard_prefix" in cfg else 0))

    resolved.update({"replications": config.replications,
                     "discard_prefix": config.discard_prefix,
                     "estimator": [str(run) for run in runs]})
    core = _manifest_core("mc", resolved)
    start = time.perf_counter()
    try:
        summary, failed = run_mc(config, threads=threads), None
    except AllReplicationsFailed as exc:   # written all the same, then raised
        summary, failed = exc.summary, exc
    elapsed = time.perf_counter() - start
    _mc_summary_csv(summary, args.out)
    _write_sidecar(args.out, core, elapsed)
    if args.raw:
        _mc_raw_csv(summary, args.raw)
        _write_sidecar(args.raw, core, elapsed)
    print(summary.format_table())
    print(f"wrote summary to {args.out}")
    if failed:
        raise failed
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(args.level or list(CHECK_LEVELS))
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _result_cells(cells) -> np.ndarray:
    """A result's window cells as the aggregate reads them: 32 JSON
    integers, refused as the table of five periods they are would be."""
    if not (isinstance(cells, list) and len(cells) == 32):
        got = f"{len(cells)} entries" if isinstance(cells, list) else repr(cells)
        raise ValueError(f"result field 'cells' must be a list of 32 integers, got {got}")
    for count in cells:
        if type(count) is not int:
            raise ValueError(f"result field 'cells' must hold JSON integers, got {count!r}")
    try:
        # an entry past int64 makes an object array, which the table refuses
        return _table_cells(np.array(cells), 4)
    except ValueError as exc:
        raise ValueError(f"result field 'cells': {exc}") from None


def _cmd_wald(args) -> int:
    """Re-run a result's estimator line with the Wald set ``--set`` on the
    result's cells, and print the Wald block ``estimate`` would write."""
    try:
        with open(args.result) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read estimate result {args.result}: {exc}") from exc
    try:
        line, cells = payload["manifest"]["config"]["estimator"], payload["cells"]
    except KeyError as exc:
        raise ValueError(f"result file lacks field {exc}; a result written before "
                         "estimate stored its cells cannot be re-run") from exc
    except TypeError as exc:
        raise ValueError(f"result file is not an estimate result: {exc}") from exc
    if not isinstance(line, str):
        raise ValueError(f"result field 'estimator' must be a str, got {line!r}")
    run = dataclasses.replace(EstimatorRun.parse(line), wald=args.set)
    stats_cache = {run.window_t: from_cells(run.window_t, _result_cells(cells))}
    result = estimate_panel(None, run.family, run.variant, run.window_t,
                            two_step=run.two_step, wald=run.wald, stats_cache=stats_cache)
    print(json.dumps(result.wald.to_dict(), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panel-logit",
        description="Linear estimation of dynamic binary panels with time effects")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a panel and write it as CSV")
    p_sim.add_argument("--config", help="flat key=value model/size config")
    p_sim.add_argument("--from-manifest", help="re-run from a manifest sidecar")
    p_sim.add_argument("--out", required=True, help="output panel CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate one panel CSV")
    p_est.add_argument("panel", nargs="?", help="panel CSV path")
    p_est.add_argument("--family", choices=("A", "B", "C"))
    p_est.add_argument("--variant",
                       help="full | minus-3-7 | minus-1-5 | minus-r:<k>")
    p_est.add_argument("--window", type=_ascii_int, help="estimation window index t")
    p_est.add_argument("--two-step", action="store_true",
                       help="also estimate the effect step at t-1")
    p_est.add_argument("--wald", choices=sorted(RESTRICTION_SETS),
                       help="run a Wald restriction test")
    p_est.add_argument("--from-manifest", help="re-run from a manifest sidecar")
    p_est.add_argument("--out", help="write result JSON here (default stdout)")
    p_est.set_defaults(func=_cmd_estimate)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo experiment")
    p_mc.add_argument("--config", help="flat key=value experiment config")
    p_mc.add_argument("--threads", type=_ascii_int,
                      help="worker processes (default: the usable CPUs)")
    p_mc.add_argument("--from-manifest", help="re-run from a manifest sidecar")
    p_mc.add_argument("--out", required=True, help="summary CSV path")
    p_mc.add_argument("--raw", help="also write per-replication estimates CSV")
    p_mc.set_defaults(func=_cmd_mc)

    p_ver = sub.add_parser("verify", help="run the exact verification suite")
    p_ver.add_argument("--level", action="append", choices=CHECK_LEVELS,
                       help="check level (repeatable; default: all)")
    p_ver.set_defaults(func=_cmd_verify)

    p_wald = sub.add_parser("wald", help="Wald test on a stored estimate result")
    p_wald.add_argument("result", help="estimate result JSON")
    p_wald.add_argument("--set", required=True, choices=sorted(RESTRICTION_SETS))
    p_wald.set_defaults(func=_cmd_wald)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
