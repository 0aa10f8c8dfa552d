"""Every function, class and method in the package has a caller outside
the tests, in the package itself or in the benchmark harness, and every
`__slots__` field of a package class is read there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "g2cert").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))

# Definitions whose only callers are tests, each kept in the package for a
# stated reason; other test-only code lives in tests/oracles.py.
TEST_REFERENCES = {
    "linalg.det_fraction": "the benchmark's span list traces it by its package path",
    "numeric.eval_form_int": "the benchmark's span list traces it by its package path",
}


def definitions(tree, module):
    """(qualified name, class, bare name) of each module-level function and
    class (class None) and of each method of a module-level class, dunder
    methods excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", None, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", node.name, item.name


def class_lineages(sources):
    """{class name: the class and its base classes in `sources`} for each
    module-level class of `sources` ({module: tree})."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for tree in sources.values() for node in tree.body if isinstance(node, ast.ClassDef)
    }

    def lineage(name):
        return {name}.union(*(lineage(b) for b in bases.get(name, ())))

    return {name: lineage(name) for name in bases}


def receiver_name(value, owner):
    """The name an attribute's receiver reads: `owner`, the enclosing
    class, for self and cls; None for a receiver that reads no name."""
    if isinstance(value, ast.Name):
        return owner if value.id in ("self", "cls") else value.id
    return value.attr if isinstance(value, ast.Attribute) else None


def references(tree, lineages):
    """What a module references: the bare names it reads or imports, the
    attributes it takes on a receiver of unknown type, and (class, attribute)
    for an attribute taken on a class of `lineages` by name, or on self or
    cls inside its body, for that class and each of its bases."""
    names, attrs, methods = set(), set(), set()

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name if node.name in lineages else None
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Attribute):
            receiver = receiver_name(node.value, owner)
            if receiver in lineages:
                methods.update((cls, node.attr) for cls in lineages[receiver])
            else:
                attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return names, attrs, methods


def unreferenced(sources, callers):
    """Qualified names defined in `sources` ({module: tree}) that no tree in
    `callers` references.  A module-level definition counts when its bare
    name is read, imported or taken as an attribute; a method only when it
    is taken as an attribute of its class (or a subclass), or of a receiver
    whose class is not known.  A bare name never counts for a method."""
    lineages = class_lineages(sources)
    found = [references(tree, lineages) for tree in callers]
    names, attrs, methods = (set().union(*parts) for parts in zip(*found))
    return sorted(
        qualified
        for module, tree in sources.items()
        for qualified, owner, name in definitions(tree, module)
        if name not in attrs
        and (name not in names if owner is None else (owner, name) not in methods)
    )


def slot_fields(tree, module):
    """(qualified name, field) of each `__slots__` name of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__slots__"
                    for target in item.targets
                ):
                    slots = ast.literal_eval(item.value)
                    for name in [slots] if isinstance(slots, str) else slots:
                        yield f"{module}.{node.name}.{name}", name


def unread_slots(sources, callers):
    """Qualified `__slots__` fields of `sources` ({module: tree}) that no tree
    in `callers` reads as an attribute, on any receiver; a field that is
    only stored counts as unread."""
    read = {
        node.attr
        for tree in callers
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        qualified
        for module, tree in sources.items()
        for qualified, name in slot_fields(tree, module)
        if name not in read
    )


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_definition_has_a_caller_outside_the_tests():
    sources = {path.stem: parse(path) for path in PACKAGE}
    callers = [parse(path) for path in CALLERS]
    assert unreferenced(sources, callers) == sorted(TEST_REFERENCES)


def test_every_slot_is_read_outside_the_tests():
    sources = {path.stem: parse(path) for path in PACKAGE}
    callers = [parse(path) for path in CALLERS]
    assert unread_slots(sources, callers) == []


def test_detects_a_planted_unread_slot():
    module = ast.parse(
        "class A:\n"
        "    __slots__ = ('used', 'stored')\n"
        "    def __init__(self, x):\n        self.used = self.stored = x\n"
        "    def get(self):\n        return self.used\n"
        "class B:\n"
        "    __slots__ = 'only'\n"
    )
    assert unread_slots({"m": module}, [module]) == ["m.A.stored", "m.B.only"]


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


def test_method_references_resolve_to_their_class():
    # the bare-name rule counted A.zero as called (a parameter named zero,
    # and B.zero), and B.helper (A's self.helper), so it flagged nothing here
    module = ast.parse(
        "class A:\n"
        "    def zero(self):\n        return 0\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "class B:\n"
        "    def zero(self):\n        return 0\n"
        "    def helper(self):\n        return 1\n"
        "class C(A):\n"
        "    def run(self):\n        return self.used()\n"
        "def make(zero):\n    return B.zero(), zero\n"
    )
    caller = ast.parse("import m\nm.make(0)\nm.C().run()\n")
    assert unreferenced({"m": module}, [module, caller]) == ["m.A.zero", "m.B.helper"]
