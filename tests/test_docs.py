import argparse
import dataclasses
import re
from pathlib import Path

import panel_logit as pl
from panel_logit import cli
from panel_logit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(pl.__file__).resolve().parent


def _resolves(path):
    obj = pl
    for name in path.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_api_references_resolve():
    # the whole dotted path: ``pl.kernels.gone`` fails although ``pl.kernels`` resolves
    paths = set(re.findall(r"\bpl\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", README.read_text()))
    assert paths, "README names no pl.<name>"
    assert sorted(p for p in paths if not _resolves(p)) == []


def test_readme_python_blocks_run():
    # one namespace, in order, as a reader runs them: a stale call fails here
    # although every name in it resolves
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README holds no python block"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_estimator_lines_are_what_the_parser_writes():
    lines = re.findall(r"^estimator = (.*)$", README.read_text(), flags=re.MULTILINE)
    assert lines, "README holds no estimator line"
    for line in lines:
        assert str(pl.EstimatorRun.parse(line)) == line


def _cli_section() -> str:
    return re.search(r"^## CLI\n(.*?)^## ", README.read_text(),
                     flags=re.MULTILINE | re.DOTALL)[1]


def test_readme_cli_names_only_options_the_parser_has():
    # a removed flag or environment variable cannot stay in the README
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {flag for command in sub.choices.values()
               for action in command._actions for flag in action.option_strings}
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _cli_section()))
    assert flags, "README's CLI section names no flag"
    assert sorted(flags - options) == []
    source = "".join(p.read_text() for p in SRC.glob("*.py"))
    names = set(re.findall(r"\bPANEL_LOGIT_\w+", README.read_text()))
    assert sorted(name for name in names if f'"{name}"' not in source) == []


def _config_keys() -> set[str]:
    """The keys the CLI reads: ``model``, the fields of the specs and of
    ``DgpConfig``, the experiment keys and the estimate manifest's ``panel``."""
    fields = {f.name for cls in (pl.TimeDummiesSpec, pl.TimeTrendSpec, pl.DgpConfig)
              for f in dataclasses.fields(cls)}
    return {"model", "panel", *fields, *cli._EXPERIMENT_KEYS}


def test_readme_cli_names_every_config_key():
    section = _cli_section()
    named = {*re.findall(r"`(\w+)`", section),
             *re.findall(r"^(\w+) = ", section, flags=re.MULTILINE)}
    assert sorted(_config_keys() - named) == []


def test_readme_cli_config_lines_are_keys_the_cli_reads():
    lines = set(re.findall(r"^(\w+) = ", _cli_section(), flags=re.MULTILINE))
    assert lines, "README's CLI section holds no config line"
    assert sorted(lines - _config_keys()) == []
