"""The package's import layers: estimation and verification import nothing
from the workflow, the Monte Carlo harness or the command line, no module
imports the command line, and the package needs nothing but the standard
library and numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "panel_logit"
LOWER = ("panel", "_rng", "model", "kernels", "aggregation", "estimators", "inference",
         "oracle")
UPPER = {"workflow", "mc", "cli"}


def _package_imports(path: Path) -> set[str]:
    """The names under ``panel_logit`` that a module imports, anywhere in
    its code: ``mc`` for ``from .mc import run_mc``, ``from . import mc``
    and ``import panel_logit.mc`` alike."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:   # relative to the package, which has no subpackages
                base = "panel_logit" + ("." + base if base else "")
            dotted += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("panel_logit.")}


def test_parser_reads_every_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy\nimport panel_logit.mc\nfrom . import kernels\n"
                    "from .panel import PanelData\nfrom panel_logit import cli\n"
                    "def f():\n    from .workflow import estimate_panel\n")
    assert _package_imports(path) == {"mc", "kernels", "panel", "cli", "workflow"}


@pytest.mark.parametrize("module", LOWER)
def test_lower_layer_imports_no_upper_layer(module):
    path = PACKAGE / f"{module}.py"
    assert path.exists()
    assert _package_imports(path) & UPPER == set()


def test_no_module_imports_the_cli():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in modules} >= set(LOWER) | UPPER
    assert [path.stem for path in modules if "cli" in _package_imports(path)] == []


def test_the_package_loads_no_scipy():
    # a fresh interpreter shows what an import loads, whatever this one has
    # loaded already
    code = ("import sys, panel_logit, panel_logit.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout == "[]\n"


def _top_level_imports(path: Path) -> set[str]:
    """The top-level packages a module imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_the_standard_library_numpy_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"numpy", "panel_logit"}
    foreign = {path.name: sorted(_top_level_imports(path) - allowed)
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
