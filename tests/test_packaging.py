"""The dependencies declared in pyproject.toml are the third-party packages
the source imports, no more and no fewer."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]


def test_declared_dependencies_match_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0].lower() for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "shockstab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = {name for name in imported if name not in sys.stdlib_module_names}
    assert third_party - {"shockstab"} == declared
