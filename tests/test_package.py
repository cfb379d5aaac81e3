"""Checks on the package source and its documentation."""

import ast
import doctest
import re
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import pretzelrep

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "pretzelrep").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_public_and_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            sibling = node.level > 0 or (node.module or "").startswith("pretzelrep")
            for alias in node.names:
                if sibling and alias.name.startswith("_"):
                    problems.append(f"line {node.lineno}: private {alias.name}")
                bound = alias.asname or alias.name
                if bound not in used:
                    problems.append(f"line {node.lineno}: unused {bound}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    problems.append(f"line {node.lineno}: unused {bound}")
    assert problems == []


def test_readme_examples_run():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_the_package_exports_each_module_all_and_nothing_else():
    modules = [import_module(f"pretzelrep.{name}") for name in (
        "errors", "tanglecalc", "linktrace", "slopelemma", "surfacescan", "repclassify", "cli")]
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
    public = {name for name, value in vars(pretzelrep).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    # cli's build_parser stays in cli; the package takes only its main and run
    assert public == {name for module in modules[:-1] for name in module.__all__} | {"main", "run"}


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert pretzelrep.__version__ == re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
