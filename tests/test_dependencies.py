"""Every third-party module the package imports is a declared dependency.

A clean ``pip install -e .`` installs exactly ``[project] dependencies``
from ``pyproject.toml``; an import outside that list works on a machine
that happens to have the module and fails everywhere else.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules() -> set[str]:
    modules: set[str] = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }


def test_third_party_imports_are_declared():
    third_party = {
        name
        for name in imported_top_level_modules()
        if name != "repro" and name not in sys.stdlib_module_names
    }
    assert third_party <= declared_dependencies(), (
        f"undeclared runtime dependencies: "
        f"{sorted(third_party - declared_dependencies())}"
    )
