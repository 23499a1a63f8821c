"""Every source file parses as Python 3.10, the oldest version that
pyproject.toml supports, so syntax from a newer Python fails here rather
than only on a 3.10 run of CI."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_310(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
