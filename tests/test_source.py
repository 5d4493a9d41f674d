"""Checks on the package source itself."""

import ast
from pathlib import Path

import monocat

PACKAGE = Path(monocat.__file__).parent


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements; every theorem check is an
    # errors.require or a typed error instead, so that it survives -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(PACKAGE.glob("*.py")) and not found, found
