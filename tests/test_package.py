"""Checks on the package source and its documentation."""

import ast
import doctest
from pathlib import Path

import pytest

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
