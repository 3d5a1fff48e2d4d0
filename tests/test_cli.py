import csv
import json
import os
import shutil

import numpy as np
import pytest

from panel_logit import (DgpConfig, PanelData, TimeTrendSpec, aggregate, cli,
                         read_panel_csv, simulate_panel, write_panel_csv)
from panel_logit.model import history_law
from panel_logit.cli import main, parse_config_file

SIM_CONFIG = """
# heterogeneous dummies model (identification needs fixed-effect variation)
model = dummies
gamma = 0.8
td = 0.0 0.1 -0.05 0.2 0.05 0.15 0.3 0.1
n_individuals = {n}
n_periods = 8
sigma_eta_sq = 1.5
seed = {seed}
"""

MC_CONFIG = SIM_CONFIG + """
replications = {reps}
discard_prefix = 3
estimator = A minus-3-7 7
estimator = B minus-1-5 7 two-step
"""


TREND_CONFIG = """
model = trend
gamma = 0.8
phi_coef = 0.2
n_individuals = 50
n_periods = 8
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_repeated_keys(tmp_path):
    path = _write(tmp_path, "c.cfg", "a = 1\nb = x\nb = y\n# comment\nb = z\n")
    cfg = parse_config_file(path)
    assert cfg == {"a": ["1"], "b": ["x", "y", "z"]}


def test_simulate_shape_and_determinism(tmp_path):
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=10, seed=1))
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    lines = out1.read_text().splitlines()
    assert lines[0] == "id,t,y"
    assert len(lines) == 81  # header + 10 individuals x 8 periods
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "p1.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert "timing" in manifest and "config" in manifest


def test_seed_is_set_by_the_config_alone(tmp_path, capsys):
    # the config's seed changes the panel; no flag overrides it
    cfg1 = _write(tmp_path, "sim1.cfg", SIM_CONFIG.format(n=50, seed=1))
    cfg2 = _write(tmp_path, "sim2.cfg", SIM_CONFIG.format(n=50, seed=2))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg1, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg2, "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()
    capsys.readouterr()
    for command in ("simulate", "mc"):
        with pytest.raises(SystemExit) as err:
            main([command, "--config", cfg1, "--out", str(tmp_path / "c.csv"), "--seed", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed 2" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_roundtrip_aggregates_identical(tmp_path):
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=500, seed=3))
    out = tmp_path / "panel.csv"
    main(["simulate", "--config", cfg, "--out", str(out)])
    spec, dgp, _ = cli._model_and_dgp(parse_config_file(cfg))
    simulated = simulate_panel(spec, dgp)
    panel = read_panel_csv(out)
    assert np.array_equal(panel.y, simulated.y) and panel.t0 == simulated.t0
    assert panel.ids is None and simulated.ids is None
    assert np.array_equal(aggregate(panel, 7).summands.counts,
                          aggregate(simulated, 7).summands.counts)


def test_estimate_happy_path(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=20000, seed=1))
    panel_path = tmp_path / "panel.csv"
    main(["simulate", "--config", cfg, "--out", str(panel_path)])
    result_path = tmp_path / "result.json"
    code = main(["estimate", str(panel_path), "--family", "A",
                 "--variant", "minus-3-7", "--window", "7",
                 "--two-step", "--out", str(result_path)])
    assert code == 0
    payload = json.loads(result_path.read_text())
    assert payload["manifest"]["command"] == "estimate"
    assert set(payload["transformed"]["alpha"]) == {"a", "b", "c", "d", "f", "g"}
    assert "gamma" in payload["original"]
    assert "dtd_tm1" in payload["original"]
    assert payload["two_step"]["ratio"] > 0


def test_estimate_without_out_writes_the_result_to_stdout(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=5000, seed=2))
    panel_path = tmp_path / "panel.csv"
    main(["simulate", "--config", cfg, "--out", str(panel_path)])
    assert main(["estimate", str(panel_path), "--family", "A", "--variant",
                 "minus-3-7", "--window", "7", "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert main(["estimate", str(panel_path), "--family", "A", "--variant",
                 "minus-3-7", "--window", "7"]) == 0
    assert capsys.readouterr().out == (tmp_path / "r.json").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "panel.csv", "panel.csv.manifest.json", "r.json", "r.json.manifest.json", "sim.cfg"]


def test_estimate_from_manifest_bitwise(tmp_path):
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=5000, seed=2))
    panel_path = tmp_path / "panel.csv"
    main(["simulate", "--config", cfg, "--out", str(panel_path)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["estimate", str(panel_path), "--family", "A", "--variant",
                 "minus-3-7", "--window", "7", "--out", str(r1)]) == 0
    manifest = json.loads((tmp_path / "r1.json.manifest.json").read_text())
    assert manifest["config"] == {"panel": str(panel_path), "estimator": "A minus-3-7 7"}
    assert main(["estimate", "--from-manifest", str(r1) + ".manifest.json",
                 "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_estimate_from_manifest_refuses_estimator_flags(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=5000, seed=2))
    panel_path = tmp_path / "panel.csv"
    main(["simulate", "--config", cfg, "--out", str(panel_path)])
    r1 = tmp_path / "r1.json"
    assert main(["estimate", str(panel_path), "--family", "A", "--variant",
                 "minus-3-7", "--window", "7", "--out", str(r1)]) == 0
    capsys.readouterr()
    r2 = tmp_path / "r2.json"
    assert main(["estimate", "--from-manifest", str(r1) + ".manifest.json",
                 "--family", "B", "--variant", "minus-1-5", "--two-step",
                 "--out", str(r2)]) == 2
    assert capsys.readouterr().err.endswith("drop --family, --variant, --two-step\n")
    assert not r2.exists()
    assert main(["estimate", str(panel_path), "--from-manifest",
                 str(r1) + ".manifest.json", "--window", "0"]) == 2
    assert "drop PANEL, --window" in capsys.readouterr().err


def test_mc_estimator_lines_sharing_a_label_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.cfg", SIM_CONFIG.format(n=50, seed=1)
                 + "replications = 2\ndiscard_prefix = 3\nestimator = A minus-3-7 7\n"
                 + "estimator = A minus-3-7 7 wald=ab-dummies\n")
    out = tmp_path / "s.csv"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    assert "share a label" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, text", [
    ("-3", "--threads must be a whole number of at least 1, got -3"),
    ("0", "--threads must be a whole number of at least 1, got 0"),
], ids=["flag-negative", "flag-zero"])
def test_mc_worker_count_below_one_exit_2(tmp_path, capsys, flag, text):
    # refused before the config is read, naming the flag
    out = tmp_path / "s.csv"
    argv = ["mc", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)]
    assert main(argv + ["--threads", flag]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "seed", "1_000"),
    ("simulate", "stream", "\u0662"),
    ("simulate", "n_individuals", "5_000"),
    ("simulate", "n_periods", "\u0668"),
    ("mc", "replications", "2.0"),
    ("mc", "discard_prefix", "+\u0663"),
])
def test_config_integer_outside_ascii_digits_exit_2(tmp_path, capsys, command, key, value):
    # ``int`` would read Unicode digits and underscores
    text = MC_CONFIG.format(n=50, seed=1, reps=2)
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    cfg = _write(tmp_path, "c.cfg", "\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: config key {key!r}: value must be an "
                                       f"integer in ASCII digits, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, config", [
    ("simulate", "gamma", "1_0", SIM_CONFIG),
    ("mc", "sigma_eta_sq", "\u0660.\u0665", MC_CONFIG),
    ("simulate", "td", "0.0 0.1 -0.05 0.2 0.05 0.15 0.3 \uff11", SIM_CONFIG),
    ("mc", "td", "0.0 0.1 -0.05 0.2 0.05 0.15 0.3 1_0.0", MC_CONFIG),
    ("simulate", "phi_coef", "0.\u0662", TREND_CONFIG),
])
def test_config_float_outside_ascii_exit_2(tmp_path, capsys, command, key, value, config):
    # ``float`` would read 1_0 as 10.0 and Arabic-Indic digits as 0.5
    text = config.format(n=50, seed=1, reps=2)
    lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
    cfg = _write(tmp_path, "c.cfg", "\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    bad = value.split()[-1]
    assert capsys.readouterr().err == (f"error: config key {key!r}: value must be a number "
                                       f"in ASCII without underscores, got {bad!r}\n")
    assert not out.exists()


def test_config_stream_out_of_range_exit_2(tmp_path, capsys):
    # 2**56 streams: one more does not fit the generator key beside the substream
    cfg = _write(tmp_path, "c.cfg", SIM_CONFIG.format(n=50, seed=1)
                 + "stream = 72057594037927936\n")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: stream out of range: 72057594037927936\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_config_seed_outside_64_bits_exit_2(tmp_path, capsys, seed):
    # 2**64 drew seed 0's panel and -1 seed 2**64 - 1's
    cfg = _write(tmp_path, "c.cfg", SIM_CONFIG.format(n=50, seed=seed))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: seed must be in 0..2**64-1, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mc", "--config", "absent.cfg", "--out", "out.csv", "--threads", "\u0662"],
    ["estimate", "absent.csv", "--family", "A", "--variant", "minus-3-7",
     "--out", "out.csv", "--window", "\u0667"],
], ids=["mc-threads", "estimate-window"])
def test_integer_flag_outside_ascii_digits_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"argument {argv[-2]}: invalid" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def _estimate_manifest(tmp_path, monkeypatch, config: dict) -> str:
    """An edited estimate manifest, and the panel ``panel.csv`` it may name,
    in the working directory."""
    monkeypatch.chdir(tmp_path)
    dgp = DgpConfig(n_individuals=500, n_periods=8, sigma_eta_sq=0.5, seed=1)
    write_panel_csv(simulate_panel(TimeTrendSpec(gamma=1.0, phi_coef=0.3), dgp), "panel.csv")
    return _write(tmp_path, "m.json", json.dumps({"command": "estimate", "config": config}))


def _refused_from_manifest(path, capsys) -> str:
    """The error of an estimate from the manifest at ``path``, which must
    exit 2 and write nothing."""
    assert main(["estimate", "--from-manifest", path, "--out", "r.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not os.path.exists("r.json")
    return err


@pytest.mark.parametrize("window", [7.5, "\u0667", "1_0", True])
def test_estimate_manifest_window_outside_ascii_digits_exit_2(tmp_path, capsys, monkeypatch,
                                                              window):
    # a hand-edited 7.5 is refused, not truncated to window 7
    path = _estimate_manifest(tmp_path, monkeypatch,
                              {"panel": "panel.csv", "estimator": f"A minus-3-7 {window}"})
    assert _refused_from_manifest(path, capsys) == (
        "error: config key 'estimator': estimator window must be an integer in ASCII "
        f"digits, got {str(window)!r}\n")


def test_estimate_manifest_repeating_an_option_exit_2(tmp_path, capsys, monkeypatch):
    line = "A minus-3-7 7 two-step two-step"
    path = _estimate_manifest(tmp_path, monkeypatch, {"panel": "panel.csv", "estimator": line})
    assert _refused_from_manifest(path, capsys) == (
        "error: config key 'estimator': estimator option 'two-step' given more than once: "
        f"{line!r}\n")


@pytest.mark.parametrize("config, message", [
    ({"panel": 0, "estimator": "A minus-3-7 7"}, "[Errno 2] No such file or directory: '0'"),
    ({"panel": ["panel.csv", "other.csv"], "estimator": "A minus-3-7 7"},
     "config key 'panel' given more than once"),
    ({"panel": "panel.csv", "estimator": ["A minus-3-7 7", "B minus-1-5 7"]},
     "config key 'estimator' given more than once"),
], ids=["int-panel", "list-panel", "list-estimator"])
def test_estimate_manifest_value_of_another_type_exit_2(tmp_path, capsys, monkeypatch,
                                                        config, message):
    # an edited manifest: a panel of 0 is the path "0", not standard input,
    # and a list is not taken for one of its values
    path = _estimate_manifest(tmp_path, monkeypatch, config)
    assert _refused_from_manifest(path, capsys) == f"error: {message}\n"


def test_estimate_manifest_lacking_a_key_exit_2(tmp_path, capsys, monkeypatch):
    for key, other in (("panel", "estimator"), ("estimator", "panel")):
        value = {"panel": "panel.csv", "estimator": "A minus-3-7 7"}[other]
        path = _estimate_manifest(tmp_path, monkeypatch, {other: value})
        assert _refused_from_manifest(path, capsys) == f"error: missing config key {key!r}\n"


def test_estimate_manifest_of_typed_keys_exit_2(tmp_path, capsys, monkeypatch):
    # the five typed keys an estimate manifest held before it recorded the
    # estimator line: refused by name, not read a second way
    config = {"panel": "panel.csv", "family": "A", "variant": "minus-3-7", "window": 7,
              "two_step": False, "wald": None}
    path = _estimate_manifest(tmp_path, monkeypatch, config)
    assert _refused_from_manifest(path, capsys) == (
        "error: estimate does not read config keys: "
        "'family', 'two_step', 'variant', 'wald', 'window'\n")


@pytest.mark.parametrize("command", ["simulate", "mc"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_sigma_eta_sq_outside_zero_to_infinity_exit_2(tmp_path, capsys, command, value):
    # nan drew an all-zero panel and inf one fixed by each effect's sign, both exit 0
    text = MC_CONFIG.format(n=50, seed=1, reps=2).replace("sigma_eta_sq = 1.5",
                                                          f"sigma_eta_sq = {value}")
    cfg = _write(tmp_path, "c.cfg", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == ("error: sigma_eta_sq must be nonnegative and finite, "
                                       f"got {float(value)!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]


def test_simulate_too_large_to_allocate_exit_2(tmp_path, capsys):
    # 8e15 outcome bytes exceed the address space, so the allocation fails
    # at once, and the refusal is a configuration error
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=10**15, seed=1))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (f"error: a panel of {10**15} x 8 outcomes needs "
                                       f"{8 * 10**15} bytes, more than can be allocated\n")
    assert [p.name for p in tmp_path.iterdir()] == ["sim.cfg"]


def test_estimate_singular_panel_exit_1(tmp_path):
    rows = ["id,t,y"]
    for i in range(30):
        for t in range(1, 9):
            rows.append(f"{i},{t},0")
    panel_path = _write(tmp_path, "zeros.csv", "\n".join(rows) + "\n")
    code = main(["estimate", panel_path, "--family", "A",
                 "--variant", "minus-3-7", "--window", "7"])
    assert code == 1


def test_estimate_bad_csv_exit_2(tmp_path):
    bad = _write(tmp_path, "bad.csv", "wrong,header,here\n1,2,3\n")
    code = main(["estimate", bad, "--family", "A",
                 "--variant", "minus-3-7", "--window", "7"])
    assert code == 2


def test_estimate_far_off_period_exit_2(tmp_path, capsys):
    # the contiguity check built range(5, 10**23) and ended in an OverflowError
    path = _write(tmp_path, "far.csv", "id,t,y\n1,5,0\n1,99999999999999999999999,1\n")
    assert main(["estimate", path, "--family", "A", "--variant", "minus-3-7",
                 "--window", "7"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: periods must be contiguous, got [5, 99999999999999999999999]\n")


def test_estimate_overlong_field_exit_2(tmp_path, capsys):
    limit = csv.field_size_limit()
    path = _write(tmp_path, "long.csv", f"id,t,y\n{'7' * (limit + 1)},1,0\n")
    code = main(["estimate", path, "--family", "A",
                 "--variant", "minus-3-7", "--window", "7"])
    assert code == 2
    assert f"field larger than field limit ({limit})" in capsys.readouterr().err


def test_estimate_missing_args_exit_2(tmp_path):
    code = main(["estimate", "--family", "A"])
    assert code == 2


def test_estimate_window_without_pre_period_exit_2(tmp_path, capsys):
    # periods 1..8 stored: window 3 would read periods 0..4
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=50, seed=1))
    panel_path = tmp_path / "panel.csv"
    main(["simulate", "--config", cfg, "--out", str(panel_path)])
    capsys.readouterr()
    code = main(["estimate", str(panel_path), "--family", "A",
                 "--variant", "minus-3-7", "--window", "3"])
    assert code == 2
    assert "window 3 needs period 0" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["minus-r:x", "minus-r:"])
def test_estimate_unknown_variant_exit_2(tmp_path, capsys, variant):
    code = main(["estimate", str(tmp_path / "missing.csv"), "--family", "A",
                 "--variant", variant, "--window", "7"])
    assert code == 2
    assert f"unknown variant {variant!r}" in capsys.readouterr().err


def test_estimate_line_is_refused_before_the_panel_is_read(tmp_path, capsys):
    code = main(["estimate", str(tmp_path / "missing.csv"), "--family", "C",
                 "--variant", "minus-3-7", "--window", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert "variant 'minus-3-7' leaves a non-square system" in err
    assert "No such file" not in err


@pytest.mark.parametrize("seed", [0, 1])
def test_estimate_two_step_on_c_exit_2_whatever_the_data(tmp_path, capsys, seed):
    # at seed 0 the first stage fails (a nonpositive component), at seed 1
    # it succeeds: either way the line itself is refused
    dgp = DgpConfig(n_individuals=500, n_periods=8, sigma_eta_sq=0.5, seed=seed)
    panel_path = str(tmp_path / "trend.csv")
    write_panel_csv(simulate_panel(TimeTrendSpec(gamma=1.0, phi_coef=0.3), dgp), panel_path)
    code = main(["estimate", panel_path, "--family", "C", "--variant", "full",
                 "--window", "7", "--two-step"])
    assert code == 2
    assert "applies to families A and B" in capsys.readouterr().err


def test_mc_trend_estimator_on_dummies_model_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.cfg", SIM_CONFIG.format(n=50, seed=1)
                 + "replications = 2\nestimator = C full 7\n")
    out = tmp_path / "s.csv"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "C[full]@t7" in err and "time-trend model" in err
    assert not out.exists()


def test_mc_bad_estimator_window_exit_2(tmp_path, capsys):
    # refused by the config, before any replication is simulated
    cfg = _write(tmp_path, "mc.cfg", SIM_CONFIG.format(n=50, seed=1)
                 + "replications = 2\ndiscard_prefix = 3\nestimator = A minus-3-7 9\n")
    out = tmp_path / "s.csv"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    assert "window 9 needs periods 6..10" in capsys.readouterr().err
    assert not out.exists()


def test_mc_dummies_model_short_of_periods_exit_2(tmp_path, capsys, monkeypatch):
    # refused by the config: no replication runs, in a worker or not
    def unreachable(*args, **kwargs):
        raise AssertionError("run_mc called")

    monkeypatch.setattr(cli, "run_mc", unreachable)
    text = SIM_CONFIG.format(n=50, seed=1).replace("n_periods = 8", "n_periods = 10")
    cfg = _write(tmp_path, "mc.cfg", text + "replications = 2\nestimator = A minus-3-7 9\n")
    out = tmp_path / "s.csv"
    assert main(["mc", "--config", cfg, "--out", str(out), "--threads", "2"]) == 2
    assert capsys.readouterr().err == "error: spec provides 8 period effects, need 10\n"
    assert not out.exists()


@pytest.mark.parametrize("line, text", [
    ("A minus-3-7 \u0667", "estimator window must be an integer"),
    ("A minus-3-7 1_0", "estimator window must be an integer"),
    ("A minus-3-7 7 wald=ab-dumies wald=ab-dummies",
     "estimator option 'wald' given more than once"),
    ("A minus-3-7 7 two-step two-step", "estimator option 'two-step' given more than once"),
    ("A minus-3-7", "estimator line needs FAMILY VARIANT WINDOW: 'A minus-3-7'"),
    ("A minus-3-7 7 twostep", "unknown estimator option 'twostep'"),
], ids=["arabic-indic-window", "underscore-window", "repeated-wald", "repeated-two-step",
        "short-line", "unknown-option"])
def test_mc_malformed_estimator_line_exit_2(tmp_path, capsys, line, text):
    cfg = _write(tmp_path, "mc.cfg", SIM_CONFIG.format(n=50, seed=1)
                 + f"replications = 2\ndiscard_prefix = 3\nestimator = {line}\n")
    out = tmp_path / "s.csv"
    assert main(["mc", "--config", cfg, "--out", str(out)]) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


def test_bad_td_value_names_its_key(tmp_path, capsys):
    text = SIM_CONFIG.format(n=50, seed=1).replace(
        "td = 0.0 0.1 -0.05 0.2 0.05 0.15 0.3 0.1", "td = 0.1 x 0.3")
    cfg = _write(tmp_path, "sim.cfg", text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 2
    assert "config key 'td': could not convert string to float: 'x'" \
        in capsys.readouterr().err


def test_mc_summary_and_manifest_rerun(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.cfg", MC_CONFIG.format(n=4000, seed=3, reps=3))
    out1 = tmp_path / "s1.csv"
    assert main(["mc", "--config", cfg, "--threads", "1",
                 "--out", str(out1), "--raw", str(tmp_path / "raw1.csv")]) == 0
    out2 = tmp_path / "s2.csv"
    assert main(["mc", "--from-manifest", str(out1) + ".manifest.json",
                 "--threads", "2", "--out", str(out2),
                 "--raw", str(tmp_path / "raw2.csv")]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "raw1.csv").read_bytes() == (tmp_path / "raw2.csv").read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == ("estimator,parameter,true,mean,sd,se,se_median,bias,rmse,"
                      "n_success,failures,wald_rejection_rate")
    with open(tmp_path / "raw1.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    failed = [row for row in raw if row["status"] != "ok"]
    assert failed, "the config is small enough for some replications to fail"
    assert all(row["message"] for row in failed)
    assert all(row["message"] == "" for row in raw if row["status"] == "ok")


def test_mc_summary_csv_shows_the_failures_and_rejections_the_table_shows(tmp_path, capsys):
    cfg = _write(tmp_path, "mc.cfg", MC_CONFIG.format(n=3000, seed=1, reps=6)
                 + "estimator = B minus-1-5 7 wald=ab-dummies\n")
    out = tmp_path / "s.csv"
    assert main(["mc", "--config", cfg, "--threads", "1", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = {(row["estimator"], row["parameter"]): row for row in csv.DictReader(fh)}
    # one success of six: the sd of a single value stays 0.0, and the CSV says why
    assert "B[minus-1-5]@t7+two-step: 1 ok, failures: nonpositive_alpha=5\n" in table
    lone = rows["B[minus-1-5]@t7+two-step", "gamma"]
    assert (lone["sd"], lone["n_success"], lone["failures"]) == ("0.0", "1", "nonpositive_alpha=5")
    assert lone["wald_rejection_rate"] == ""
    assert "A[minus-3-7]@t7: 2 ok, failures: nonpositive_alpha=4\n" in table
    assert rows["A[minus-3-7]@t7", "dtd_t"]["failures"] == "nonpositive_alpha=4"
    assert "B[minus-1-5]@t7: 1 ok, failures: nonpositive_alpha=5; wald rejection at 5%: " \
        "0.0000 (df=3)" in table
    assert {row["wald_rejection_rate"] for key, row in rows.items()
            if key[0] == "B[minus-1-5]@t7"} == {"0.0"}


def test_mc_writes_both_csvs_when_a_line_fails_in_every_replication(tmp_path, capsys):
    # at this size and seed B's one replication fails: A's rows and B's
    # failure are written all the same, then mc exits 1 naming B
    cfg = _write(tmp_path, "mc.cfg", MC_CONFIG.format(n=5000, seed=2, reps=1))
    out, raw = tmp_path / "s.csv", tmp_path / "raw.csv"
    assert main(["mc", "--config", cfg, "--threads", "1",
                 "--out", str(out), "--raw", str(raw)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("estimation failed: B[minus-1-5]@t7+two-step: all 1 "
                            "replications failed: {'nonpositive_alpha': 1}\n")
    assert "B[minus-1-5]@t7+two-step: 0 ok, failures: nonpositive_alpha=1\n" in captured.out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["estimator"], row["n_success"], row["failures"]) for row in rows] == \
        [("A[minus-3-7]@t7", "1", "none")] * 3 + \
        [("B[minus-1-5]@t7+two-step", "0", "nonpositive_alpha=1")] * 4
    assert not any(np.isnan(float(row["mean"])) for row in rows[:3])
    assert {row[c] for row in rows[3:] for c in ("mean", "sd", "se", "bias", "rmse")} == {"nan"}
    with open(raw, newline="") as fh:
        records = [(row["estimator"], row["status"]) for row in csv.DictReader(fh)]
    assert records == [("A[minus-3-7]@t7", "ok")] * 3 + \
        [("B[minus-1-5]@t7+two-step", "nonpositive_alpha")]
    for path in (out, raw):
        manifest = json.loads((tmp_path / (path.name + ".manifest.json")).read_text())
        assert manifest["config"]["estimator"] == ["A minus-3-7 7", "B minus-1-5 7 two-step"]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A directory holding the inputs of each command and its outputs'
    manifests: sim.cfg, panel.csv, r.json and s.csv with their sidecars."""
    root = tmp_path_factory.mktemp("cli-files")
    cfg = _write(root, "sim.cfg", MC_CONFIG.format(n=4000, seed=3, reps=3))
    assert main(["simulate", "--config", cfg, "--out", str(root / "panel.csv")]) == 0
    assert main(["estimate", str(root / "panel.csv"), "--family", "A", "--variant",
                 "minus-3-7", "--window", "7", "--out", str(root / "r.json")]) == 0
    assert main(["mc", "--config", cfg, "--threads", "1", "--out", str(root / "s.csv")]) == 0
    return root


@pytest.mark.parametrize("argv, message", [
    (["estimate", "{d}/panel.csv", "--family", "A", "--variant", "minus-3-7", "--window", "7",
      "--out", "{d}/panel.csv"], "--out {d}/panel.csv names the same file as PANEL {d}/panel.csv"),
    (["estimate", "{d}/panel.csv", "--family", "A", "--variant", "minus-3-7", "--window", "7",
      "--out", "{d}/new/../panel.csv"],
     "--out {d}/new/../panel.csv names the same file as PANEL {d}/panel.csv"),
    (["estimate", "--from-manifest", "{d}/r.json.manifest.json",
      "--out", "{d}/r.json.manifest.json"],
     "--out {d}/r.json.manifest.json names the same file as "
     "--from-manifest {d}/r.json.manifest.json"),
    (["simulate", "--config", "{d}/sim.cfg", "--out", "{d}/sim.cfg"],
     "--out {d}/sim.cfg names the same file as --config {d}/sim.cfg"),
    (["mc", "--config", "{d}/sim.cfg", "--out", "{d}/sim.cfg"],
     "--out {d}/sim.cfg names the same file as --config {d}/sim.cfg"),
    (["mc", "--from-manifest", "{d}/s.csv.manifest.json", "--out", "{d}/t.csv",
      "--raw", "{d}/s.csv.manifest.json"],
     "--raw {d}/s.csv.manifest.json names the same file as "
     "--from-manifest {d}/s.csv.manifest.json"),
    (["mc", "--config", "{d}/sim.cfg", "--out", "{d}/t.csv", "--raw", "{d}/t.csv"],
     "--raw {d}/t.csv names the same file as --out {d}/t.csv"),
], ids=["estimate-panel", "estimate-panel-resolved", "estimate-manifest", "simulate-config",
        "mc-config", "mc-raw-manifest", "mc-out-raw"])
def test_output_naming_an_input_or_another_output_exit_2(tmp_path, capsys, cli_files, argv,
                                                        message):
    d = tmp_path / "files"
    shutil.copytree(cli_files, d)
    before = {p.name: p.read_bytes() for p in d.iterdir()}
    capsys.readouterr()
    assert main([arg.format(d=d) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(d=d)}\n"
    assert {p.name: p.read_bytes() for p in d.iterdir()} == before


@pytest.mark.parametrize("command, text, key", [
    ("simulate", SIM_CONFIG.format(n=50, seed=1) + "sigma_eta_sg = 0.5\n", "sigma_eta_sg"),
    ("simulate", TREND_CONFIG + "td = 0.0 0.1\n", "td"),
    ("simulate", SIM_CONFIG.format(n=50, seed=1) + "phi_coef = 0.2\n", "phi_coef"),
    ("mc", MC_CONFIG.format(n=50, seed=1, reps=2) + "stream = 3\n", "stream"),
    # the trend's effect has no level, so no key sets one
    ("simulate", TREND_CONFIG + "tau = 1_0\n", "tau"),
], ids=["misspelt", "td-under-trend", "phi_coef-under-dummies", "stream-in-mc",
        "trend-level"])
def test_unread_config_key_exit_2(tmp_path, capsys, command, text, key):
    cfg = _write(tmp_path, "c.cfg", text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{command} does not read config keys: {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_reads_an_mc_config(tmp_path):
    # the panel of replication 0, which draws stream 0
    mc_cfg = _write(tmp_path, "mc.cfg", MC_CONFIG.format(n=50, seed=1, reps=2))
    sim_cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=50, seed=1))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", mc_cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", sim_cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_from_manifest_of_another_command_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=50, seed=1))
    panel_path = tmp_path / "panel.csv"
    assert main(["simulate", "--config", cfg, "--out", str(panel_path)]) == 0
    manifest = str(panel_path) + ".manifest.json"
    capsys.readouterr()
    assert main(["estimate", "--from-manifest", manifest]) == 2
    assert "is from 'simulate', not 'estimate'" in capsys.readouterr().err
    assert main(["mc", "--from-manifest", manifest, "--out", str(tmp_path / "s.csv")]) == 2
    assert "is from 'simulate', not 'mc'" in capsys.readouterr().err


_NOT_A_MANIFEST = "manifest {path} needs a 'command' and a 'config' object"


@pytest.mark.parametrize("text, message", [
    ('["command", "config"]', _NOT_A_MANIFEST),
    ('{"command": "estimate", "config": ["panel"]}', _NOT_A_MANIFEST),
    ('{"config": {}}', _NOT_A_MANIFEST),
    ('{"command": ', "cannot load manifest {path}: Expecting value: line 1 column 13 (char 12)"),
], ids=["list", "list-config", "no-command", "not-json"])
def test_manifest_not_a_command_and_config_object_exit_2(tmp_path, capsys, text, message):
    # each but the last used to end in a traceback: a list has no keys, a
    # list config no items
    path = _write(tmp_path, "m.json", text)
    out = str(tmp_path / "out.csv")
    for argv in (["estimate"], ["simulate", "--out", out], ["mc", "--out", out]):
        assert main([*argv, "--from-manifest", path]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


@pytest.mark.parametrize("key, value, commands", [
    ("model", None, ["simulate", "mc"]),
    ("gamma", [1.0], ["simulate", "mc"]),
    ("gamma", True, ["simulate", "mc"]),
    ("td", {"1": 0.1}, ["simulate", "mc"]),
    ("estimator", ["A minus-3-7 7", 7], ["mc"]),
], ids=["null", "list-of-a-number", "bool", "object", "list-holding-a-number"])
def test_manifest_value_that_no_config_file_spells_exit_2(tmp_path, capsys, key, value,
                                                          commands):
    # a null read as the text 'None', and a one-number list as a repeated key
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=50, seed=1))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 0
    manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
    del manifest["config"]["stream"]    # mc draws a stream per replication
    manifest["config"].update({"replications": 2, "estimator": ["A minus-3-7 7"], key: value})
    capsys.readouterr()
    for command in commands:
        manifest["command"] = command
        path = _write(tmp_path, "edited.json", json.dumps(manifest))
        out = tmp_path / "out.csv"
        assert main([command, "--from-manifest", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config key {key!r} must be a string, a number or "
            f"a list of strings, got {value!r}\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "mc"])
def test_config_and_manifest_together_exit_2(tmp_path, capsys, command):
    # the manifest used to win and the config file went unread
    cfg = _write(tmp_path, "mc.cfg", MC_CONFIG.format(n=50, seed=1, reps=2))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 0
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--from-manifest",
                 str(tmp_path / "p.csv.manifest.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {command} takes --config or --from-manifest, not both\n")
    assert not out.exists()


@pytest.mark.parametrize("command, text, message", [
    ("simulate", "model = dummies\ngamma 0.8\n", "{path}:2: expected 'key = value'"),
    ("simulate", SIM_CONFIG.format(n=50, seed=1).replace("model = dummies", "model = probit"),
     "model must be 'dummies' or 'trend', got 'probit'"),
    ("simulate", "model = probit\ngamma = 1_0\n",
     "model must be 'dummies' or 'trend', got 'probit'"),
    ("mc", SIM_CONFIG.format(n=50, seed=1) + "replications = 2\n",
     "missing 'estimator' lines "
     "(format: estimator = FAMILY VARIANT WINDOW [two-step] [wald=SET])"),
], ids=["no-equals-sign", "unknown-model", "unknown-model-before-gamma",
        "mc-without-estimators"])
def test_config_file_fault_exit_2(tmp_path, capsys, command, text, message):
    cfg = _write(tmp_path, "c.cfg", text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=cfg)}\n"
    assert not out.exists()


def test_verify_passes(capsys):
    assert main(["verify", "--level", "identities", "--level", "ranks"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_full_suite(capsys):
    assert main(["verify"]) == 0


def test_verify_rejects_empty_level(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--level"])
    assert err.value.code == 2


def test_wald_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=20000, seed=1))
    panel_path = tmp_path / "panel.csv"
    main(["simulate", "--config", cfg, "--out", str(panel_path)])
    result_path = tmp_path / "result.json"
    main(["estimate", str(panel_path), "--family", "A", "--variant",
          "minus-3-7", "--window", "7", "--out", str(result_path)])
    capsys.readouterr()
    assert main(["wald", str(result_path), "--set", "ab-dummies"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["df"] == 3
    assert 0.0 <= payload["p_value"] <= 1.0


def test_wald_on_json_that_is_not_an_object_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "list.json", "[1, 2]\n")
    assert main(["wald", path, "--set", "ab-dummies"]) == 2
    assert "not an estimate result" in capsys.readouterr().err


def _trend_law_panel(n: int) -> PanelData:
    """A panel of periods 4..8 whose window-7 cells are the trend law's
    cell probabilities times ``n``, rounded: family C's estimate on it is
    near the truth at a size where C fails on most samples."""
    law = history_law(TimeTrendSpec(gamma=1.0, phi_coef=0.3), 8, 0.5)
    counts = np.rint(law.reshape(8, 32).sum(axis=0) * n).astype(np.int64)
    codes = np.repeat(np.arange(32), counts)
    # a window code spells y_{t-3} .. y_{t+1} in binary, y_{t-3} first
    y = (codes[:, None] >> np.arange(4, -1, -1)) & 1
    return PanelData(y.astype(np.int8), t0=4)


@pytest.mark.parametrize("data, line, stored, asked", [
    ("dummies", "A minus-3-7 7 two-step", "ab-dummies", "ab-dummies"),
    ("dummies", "B minus-1-5 7", "ab-dummies", "ab-dummies"),
    ("trend", "C full 7", "c-trend", "c-trend"),
    ("dummies", "A minus-3-7 7", "ab-dummies", "ab-trend"),
], ids=["A-two-step", "B", "C-trend", "A-another-set"])
def test_wald_rederives_the_wald_block_of_estimate(tmp_path, capsys, data, line, stored,
                                                    asked):
    panel_path = tmp_path / "panel.csv"
    if data == "trend":
        write_panel_csv(_trend_law_panel(100_000), panel_path)
    else:
        cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=20000, seed=1))
        main(["simulate", "--config", cfg, "--out", str(panel_path)])
    family, variant, window, *two_step = line.split()
    flags = [str(panel_path), "--family", family, "--variant", variant, "--window", window,
             *(["--two-step"] if two_step else [])]
    stored_path, asked_path = tmp_path / "stored.json", tmp_path / "asked.json"
    assert main(["estimate", *flags, "--wald", stored, "--out", str(stored_path)]) == 0
    assert main(["estimate", *flags, "--wald", asked, "--out", str(asked_path)]) == 0
    payload = json.loads(stored_path.read_text())
    assert len(payload["cells"]) == 32 and sum(payload["cells"]) == payload["transformed"]["n"]
    capsys.readouterr()
    assert main(["wald", str(stored_path), "--set", asked]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads(asked_path.read_text())["wald"]
    # the estimates printed beside the cells are not read: their loss or an
    # edit of the fields the statistic used to be rebuilt from changes nothing
    payload["transformed"].update(family="B", variant="minus-1-5", window_t=6, n=1)
    del payload["original"]
    _write(tmp_path, "edited.json", json.dumps(payload))
    assert main(["wald", str(tmp_path / "edited.json"), "--set", asked]) == 0
    assert json.loads(capsys.readouterr().out) == printed


@pytest.fixture(scope="module")
def a_result(tmp_path_factory) -> dict:
    """The payload of ``estimate`` on a 5000-individual dummies panel."""
    tmp_path = tmp_path_factory.mktemp("result")
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=5000, seed=2))
    panel_path = tmp_path / "panel.csv"
    main(["simulate", "--config", cfg, "--out", str(panel_path)])
    result_path = tmp_path / "result.json"
    assert main(["estimate", str(panel_path), "--family", "A", "--variant",
                 "minus-3-7", "--window", "7", "--out", str(result_path)]) == 0
    return json.loads(result_path.read_text())


def _wald_error(tmp_path, payload, capsys, wald_set="ab-dummies") -> str:
    path = _write(tmp_path, "edited.json", json.dumps(payload))
    capsys.readouterr()
    assert main(["wald", path, "--set", wald_set]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


def _with_cell(value, index=5):
    return lambda cells: [*cells[:index], value, *cells[index + 1:]]


_CELLS = "error: result field 'cells'"


@pytest.mark.parametrize("edit, message", [
    (None, "error: result file lacks field 'cells'; a result written before estimate "
           "stored its cells cannot be re-run\n"),
    (lambda cells: cells[:31], f"{_CELLS} must be a list of 32 integers, got 31 entries\n"),
    (_with_cell(True), f"{_CELLS} must hold JSON integers, got True\n"),
    (_with_cell(12.0), f"{_CELLS} must hold JSON integers, got 12.0\n"),
    (_with_cell(-1), f"{_CELLS}: history counts must be nonnegative\n"),
    (lambda cells: [0] * 32, f"{_CELLS}: cannot aggregate an empty history table\n"),
    (lambda cells: [2**52, 2**52, *[0] * 30],
     f"{_CELLS}: panel of {2**53} individuals exceeds the exact range 2**53\n"),
    (lambda cells: ",".join(map(str, cells)),
     f"{_CELLS} must be a list of 32 integers, got '"),
    (_with_cell(2**64), f"{_CELLS}: a history table must be 1-d with 2**T int64 counts, "
                        "got object of shape (32,)\n"),
], ids=["missing", "31-entries", "bool", "float", "negative", "all-zero", "2**53-total",
        "not-a-list", "past-int64"])
def test_wald_on_result_cells_that_are_not_a_window_table_exit_2(tmp_path, capsys, a_result,
                                                                 edit, message):
    payload = json.loads(json.dumps(a_result))
    if edit is None:     # a result written before estimate stored its cells
        del payload["cells"]
    else:
        payload["cells"] = edit(payload["cells"])
    assert _wald_error(tmp_path, payload, capsys).startswith(message)


def test_estimate_rerun_in_place_restores_the_cells_of_an_older_result(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.cfg", SIM_CONFIG.format(n=5000, seed=2))
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "panel.csv")])
    result = tmp_path / "r.json"
    assert main(["estimate", str(tmp_path / "panel.csv"), "--family", "A", "--variant",
                 "minus-3-7", "--window", "7", "--out", str(result)]) == 0
    written = result.read_bytes()
    payload = json.loads(written)
    del payload["cells"]     # as a result written before estimate stored them
    result.write_text(json.dumps(payload))
    assert main(["estimate", "--from-manifest", f"{result}.manifest.json",
                 "--out", str(result)]) == 0
    assert result.read_bytes() == written


@pytest.mark.parametrize("line, wald_set, message", [
    ("A minus-1-5 7", "ab-dummies",
     "estimator A[minus-1-5]@t7: restriction set 'ab-dummies' expects components"),
    ("A minus-3-7 7", "c-trend",
     "estimator A[minus-3-7]@t7: restriction set 'c-trend' expects components"),
    (7, "ab-dummies", "result field 'estimator' must be a str, got 7"),
], ids=["edited-line", "set-off-the-line", "not-a-str"])
def test_wald_on_a_line_it_cannot_run_exit_2(tmp_path, capsys, a_result, line, wald_set,
                                             message):
    payload = json.loads(json.dumps(a_result))
    payload["manifest"]["config"]["estimator"] = line
    assert _wald_error(tmp_path, payload, capsys, wald_set).startswith(f"error: {message}")


def test_missing_config_exit_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "none.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["mc", "--out", str(tmp_path / "y.csv")]) == 2
