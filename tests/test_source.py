"""Rules about the library's own source files, and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stagmt"


def _trees():
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def _loads(module: str, code: str, *flags: str) -> bool:
    """Whether a fresh interpreter running code, on this checkout's library,
    ends with module in sys.modules."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c",
         f"import sys\n{code}\nprint({module!r} in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    if proc.returncode:
        raise RuntimeError(proc.stderr)
    return proc.stdout == "True\n"


def test_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_dataclasses():
    # importing dataclasses and running its decorators was about a third of
    # the set-up time; records are named tuples or plain classes. inspect is
    # not checked: from 3.12 the standard library imports it anyway.
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees() for node in ast.walk(tree)
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module
                 and node.module.split(".")[0] == "dataclasses")]
    assert found == []
    assert not _loads("dataclasses", "import stagmt")


def test_bare_import_loads_no_importlib_resources():
    # the package finds its grammars beside its own source; -S keeps site
    # from loading importlib.resources before the import does
    assert not _loads("importlib.resources", "import stagmt, stagmt.cli", "-S")


def test_no_private_names_across_modules():
    # a module's _private names are its own: no import of one, and no read
    # of one through an imported name
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = []
    for path, tree in _trees():
        nodes = list(ast.walk(tree))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in nodes
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        found += [f"{path.name}:{node.lineno}: imports {alias.name}"
                  for node in nodes if isinstance(node, ast.ImportFrom)
                  for alias in node.names if private(alias.name)]
        found += [f"{path.name}:{node.lineno}: reads {node.value.id}.{node.attr}"
                  for node in nodes if isinstance(node, ast.Attribute)
                  and private(node.attr) and isinstance(node.value, ast.Name)
                  and node.value.id in imported]
    assert found == []


def test_no_recursion():
    # a recursive function fails on deep enough input (RecursionError, or the
    # C stack), so no function may call itself. Exempt: the oracle, a
    # referee for short inputs, and the grammar file's tree codec, whose
    # depth MAX_TREE_DEPTH caps.
    exempt = {("grammar_io.py", "_node_from_json"),
              ("grammar_io.py", "_node_to_json")}
    found = []
    for path, tree in _trees():
        if path.name == "oracle.py":
            continue
        owners = {"self", "cls"} | {node.name for node in ast.walk(tree)
                                    if isinstance(node, ast.ClassDef)}
        for func in ast.walk(tree):
            if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or (path.name, func.name) in exempt):
                continue
            found += [f"{path.name}:{call.lineno}: {func.name} calls itself"
                      for call in ast.walk(func) if isinstance(call, ast.Call)
                      and ((isinstance(call.func, ast.Name)
                            and call.func.id == func.name)
                           or (isinstance(call.func, ast.Attribute)
                               and call.func.attr == func.name
                               and isinstance(call.func.value, ast.Name)
                               and call.func.value.id in owners))]
    assert found == []
