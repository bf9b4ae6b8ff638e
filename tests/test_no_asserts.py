"""Invariants in the package must survive ``python -O``, which strips asserts."""

import ast
from pathlib import Path

import resposet

PACKAGE = Path(resposet.__file__).parent


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
