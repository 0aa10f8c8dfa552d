"""Every module-level import in the package and in the tests is used, and
both import only at module level.  The command line loads none of the
standard library's introspection modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "g2cert").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """(bound name, line) of every import statement in the module body."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def nested_imports(tree):
    """The line of every import statement that is not in the module body."""
    top = set(map(id, tree.body))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


def used_names(tree):
    """Names read anywhere in the module, string annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def test_no_unused_module_level_imports():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = used_names(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional\n\ndef f(x: 'Optional[int]'):\n    return x\n")
    assert [n for n, _ in imported_names(tree) if n not in used_names(tree)] == ["os"]


def test_package_imports_only_at_module_level():
    # an import inside a function hides an import cycle from the module
    # graph, and in a test it hides what the module depends on
    nested = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        nested += [f"{path.relative_to(ROOT)}:{line}" for line in nested_imports(tree)]
    assert not nested, "imports below module level:\n" + "\n".join(nested)


def test_detects_an_import_inside_a_function():
    tree = ast.parse("import os\n\ndef f():\n    from math import gcd\n    return gcd\n")
    assert nested_imports(tree) == [4]


def test_the_cli_loads_no_introspection_modules():
    # dataclasses loads inspect, ast, dis and tokenize and execs the methods
    # it generates, which every cold command paid for at import
    code = "import sys, g2cert.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "g2cert.cli" in loaded
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize"}.isdisjoint(loaded)
