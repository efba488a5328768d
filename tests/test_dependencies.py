"""Every import in the package is the standard library, the package itself,
or a dependency declared in pyproject.toml.  An undeclared import (say, a
plotting or JIT library present on one machine only) would make code paths
depend on what happens to be installed."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "follmer"


def _declared() -> set:
    with open(ROOT / "pyproject.toml", "rb") as fp:
        deps = tomllib.load(fp)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower().replace("-", "_") for d in deps}


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_declared_dependencies_are_parsed():
    assert {"numpy", "scipy", "click"} <= _declared()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_package_or_declared(path):
    allowed = set(sys.stdlib_module_names) | {"follmer"} | _declared()
    assert _imported_roots(path) - allowed == set()
