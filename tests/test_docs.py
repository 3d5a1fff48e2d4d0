import re
from pathlib import Path

import panel_logit as pl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_references_resolve():
    names = set(re.findall(r"\bpl\.([A-Za-z_]\w*)", README.read_text()))
    assert names, "README names no pl.<name>"
    assert sorted(n for n in names if not hasattr(pl, n)) == []


def test_readme_estimator_lines_are_what_the_parser_writes():
    lines = re.findall(r"^estimator = (.*)$", README.read_text(), flags=re.MULTILINE)
    assert lines, "README holds no estimator line"
    for line in lines:
        assert str(pl.EstimatorRun.parse(line)) == line
