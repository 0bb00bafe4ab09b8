#!/usr/bin/env python3
"""Count the library's raw lines and code lines, per module and in total.

A code line is one that is not blank, not a comment only, and not inside a
docstring (the leading string of a module, class or function, found with
``ast``). Deleting comments or docstrings leaves the code-line count as it
is, so that count is the one a simplification should lower.

Usage: python3 scripts/line_count.py [FILE ...]   (default: src/stagmt/*.py)
"""

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines that docstrings occupy."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    docs = docstring_lines(source)
    raw = source.splitlines()
    code = sum(1 for number, line in enumerate(raw, 1)
               if number not in docs and line.strip()
               and not line.strip().startswith("#"))
    return len(raw), code


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    paths = [Path(a) for a in argv] or sorted((root / "src" / "stagmt").glob("*.py"))
    total_raw = total_code = 0
    print(f"{'module':<28} {'raw':>6} {'code':>6}")
    for path in paths:
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{path.name:<28} {raw:>6} {code:>6}")
    print(f"{'total':<28} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
