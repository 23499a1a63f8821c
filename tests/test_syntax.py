"""Every source file parses as Python 3.10, the oldest version that
pyproject.toml supports, so syntax from a newer Python fails here rather
than only on a 3.10 run of CI. Standard-library names that 3.10 lacks
parse fine, so an AST scan looks for those too."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "bench", "tools") for p in (ROOT / d).rglob("*.py"))

# Standard-library modules and names added after 3.10 ("builtins" holds
# the new built-in names, METHODS new method names on any object).
NEW_MODULES = {"tomllib", "wsgiref.types"}
NEW_NAMES = {
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"},
    "typing": {"Self", "Never", "LiteralString", "assert_never", "assert_type",
               "reveal_type", "Required", "NotRequired", "TypeVarTuple", "Unpack",
               "dataclass_transform", "get_overloads", "clear_overloads",
               "override", "TypeAliasType", "ReadOnly", "TypeIs"},
    "enum": {"StrEnum", "ReprEnum", "EnumCheck", "FlagBoundary", "verify",
             "member", "nonmember", "global_enum"},
    "datetime": {"UTC"},
    "asyncio": {"TaskGroup", "Runner", "timeout", "timeout_at", "Timeout"},
    "hashlib": {"file_digest"},
    "contextlib": {"chdir"},
    "itertools": {"batched"},
    "math": {"cbrt", "exp2", "sumprod"},
    "operator": {"call"},
    "sys": {"exception"},
    "re": {"NOFLAG"},
    "logging": {"getLevelNamesMapping"},
    "inspect": {"getmembers_static", "markcoroutinefunction"},
}
METHODS = {"add_note"}


def newer_names(source: str) -> list[str]:
    """'line: name' for each use in source of a name that 3.10 lacks."""
    tree = ast.parse(source)
    modules = {}  # local name -> the module it is bound to by an import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.partition(".")[0]
                modules[a.asname or top] = a.name if a.asname else top
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name in NEW_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module in NEW_MODULES:
                names = [node.module]
            names += [f"{node.module}.{a.name}" for a in node.names
                      if a.name in NEW_NAMES.get(node.module, ())]
        elif isinstance(node, ast.Attribute) and node.attr in METHODS:
            names = [f".{node.attr}"]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if node.attr in NEW_NAMES.get(module, ()):
                names = [f"{module}.{node.attr}"]
        elif isinstance(node, ast.Name) and node.id in NEW_NAMES["builtins"]:
            names = [node.id]
        found += [f"{node.lineno}: {name}" for name in names]
    return sorted(found)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_310(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_uses_no_stdlib_name_newer_than_310(path):
    assert newer_names(path.read_text()) == []


def test_scan_finds_newer_names():
    source = "\n".join([
        "import tomllib",
        "import typing as t, asyncio, datetime",
        "from typing import Self, Never, LiteralString, assert_never, List",
        "from enum import StrEnum",
        "from hashlib import file_digest",
        "import contextlib",
        "t.Self, asyncio.TaskGroup, datetime.UTC, contextlib.chdir(p)",
        "e.add_note('x'); raise ExceptionGroup('x', [e])",
        "datetime.timezone.utc, t.List, asyncio.gather",
    ])
    assert newer_names(source) == sorted([
        "1: tomllib",
        "3: typing.Self", "3: typing.Never", "3: typing.LiteralString",
        "3: typing.assert_never",
        "4: enum.StrEnum",
        "5: hashlib.file_digest",
        "7: typing.Self", "7: asyncio.TaskGroup", "7: datetime.UTC",
        "7: contextlib.chdir",
        "8: .add_note", "8: ExceptionGroup",
    ])
