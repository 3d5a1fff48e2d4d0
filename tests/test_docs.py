import re
from pathlib import Path

import panel_logit as pl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_references_resolve():
    names = set(re.findall(r"\bpl\.([A-Za-z_]\w*)", README.read_text()))
    assert names, "README names no pl.<name>"
    assert sorted(n for n in names if not hasattr(pl, n)) == []
