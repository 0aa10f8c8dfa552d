"""Every function, class and method in the package has a caller outside
the tests: in the package itself or in the benchmark harness."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "g2cert").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))

# Definitions whose only callers are tests, each kept in the package for a
# stated reason; other test-only code lives in tests/oracles.py.
TEST_REFERENCES = {
    "certify.negative_control": "shows the falsifier's SU(3) predicate is not vacuously false, "
    "until a positive control on the sampler's own draws replaces it",
    "linalg.det_fraction": "the benchmark's span list traces it by its package path",
}


def definitions(tree, module):
    """(qualified name, bare name) of each module-level function and class
    and of each method of a module-level class, dunder methods excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name


def referenced_names(tree):
    """Names read, attributes taken and names imported anywhere in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def unreferenced(sources, callers):
    """Qualified names defined in `sources` ({module: tree}) whose bare name
    no tree in `callers` references."""
    used = set()
    for tree in callers:
        used |= referenced_names(tree)
    return sorted(
        qualified
        for module, tree in sources.items()
        for qualified, name in definitions(tree, module)
        if name not in used
    )


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_definition_has_a_caller_outside_the_tests():
    sources = {path.stem: parse(path) for path in PACKAGE}
    callers = [parse(path) for path in CALLERS]
    assert unreferenced(sources, callers) == sorted(TEST_REFERENCES)


def test_detects_a_planted_unreferenced_function():
    module = ast.parse(
        "class A:\n"
        "    def used(self):\n        return helper()\n"
        "    def orphan(self):\n        pass\n"
        "    def __repr__(self):\n        return 'A'\n"
        "def helper():\n    return 1\n"
        "def planted():\n    return 2\n"
    )
    caller = ast.parse("from m import A\nA().used()\n")
    assert unreferenced({"m": module}, [module, caller]) == ["m.A.orphan", "m.planted"]
