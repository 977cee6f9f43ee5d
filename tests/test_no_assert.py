"""No correctness check in the package may be an ``assert``: ``python -O``
strips them, so every check in ``src/hfree`` has to raise on its own."""

import ast
from pathlib import Path

import hfree

SRC = Path(hfree.__file__).parent


def test_no_assert_in_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == [], found
