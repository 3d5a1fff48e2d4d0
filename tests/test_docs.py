import re
from pathlib import Path

import panel_logit as pl

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_estimator_lines_are_what_the_parser_writes():
    lines = re.findall(r"^estimator = (.*)$", README.read_text(), flags=re.MULTILINE)
    assert lines, "README holds no estimator line"
    for line in lines:
        assert str(pl.EstimatorRun.parse(line)) == line
