"""Rules about the library's own source files."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stagmt"


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
