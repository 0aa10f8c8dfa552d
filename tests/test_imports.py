"""Every module-level import in the package and in the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "g2cert").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """(bound name, line) of every import statement in the module body."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


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
