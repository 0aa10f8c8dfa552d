"""Machine-readable catalog of Lie algebras: DSL parsing, validation, and
JSON loading.

Structure equations use the same notation as the source tables: a
parenthesized n-tuple, one slot per de^k.  The tuple and each slot are read
by the expression grammar of `exprs`, in which eIJ is the basis symbol for
e^i ^ e^j with single-digit indices (n <= 9).  After parsing, every term of
a slot must hold exactly one basis symbol, to the first power, with
1 <= I < J <= n; its coefficient is a rational polynomial in the family
parameters.  Examples:

    (-e13, e23, 0, 0, 0, 0)
    (-e24 - 2/3*e15, -e34 + 1/3*e25, 4/3*e35, -e45, 0, 0)
    (-e16 - e35, -l*e26 - e45, (1+2*l)*e36, (2+l)*e46, (-2-2*l)*e56, 0)

Because a slot is an ordinary expression, powers of parameters (p^2*e12)
and grouped basis terms (2*(e12 + e13)) are accepted too; e12^2, e12*e13
and scalar terms are not.  The term check runs after like terms are
collected, so terms that cancel (1 + e12 - 1) are never seen.

Bare identifiers inside a structure slot, other than eIJ, are family
parameters and get the fam_ prefix; expressions elsewhere (witnesses,
derivation matrices, constraints) use full variable names (alpha_14, a_1,
fam_p, ...).

A catalog is a JSON document, schema "g2cert-catalog/1".  The package
only reads catalogs; the writer that the round-trip tests use lives with
the tests.  This module is its one reader.  Loading a catalog is two
steps: `parse_catalog_text` reads the document and builds each
`AlgebraEntry` (JSON, schema and entry shape), and
`AlgebraEntry.validate_entry` parses every field the pipeline reads (plan
steps, branch values and atoms, the atoms of each family parameter, gauge
expectations, `su_expected`, and witness trees, expanded to polynomials)
and builds every object the entry ships, and so runs the mathematical
checks (Jacobi, unimodularity, the nilradical, distinct branch names,
Leibniz of every derivation and gauge family with its branch values).
Jacobi, Leibniz, unimodularity and the nilradical's ideal and
derived-algebra conditions are read off the differential d; nilpotency
builds the descending central series over Q from the brackets inside the
nilradical, read as rationals off d too, so a nilradical whose brackets
involve a family parameter is refused.  A nilradical is a list of ints,
and a dimension-6 entry with a plan must ship one.  Plan steps are
checked against one table (PLAN_STEPS), and `su_expected`, a branch's
`subs` and `atoms` and a family parameter's `atoms` are read by another
(FIELDS); either way an error names the field and what it expects.  A
context (the entry as shipped, or a branch) lists at most one step of
each kind, which its verifier reads (`AlgebraEntry.step`), and a gauge
step lists one target per gauge parameter.  A key the
format does not define, in an entry, a family parameter, a derivation family,
`su_expected` or a plan step, is refused by name; the keys of an entry
(`ENTRY_KEYS`) are the keyword parameters of the `AlgebraEntry`
constructor, and a null `plan` or `witnesses` is refused, not read as
empty.  The entry keeps what
it parsed and built, and the pipeline and recheck read it again for free.
`load_catalog_text`, `load_catalog`, `load_builtin` and `load_any` do
both, for every entry; the `validate`, `run-all` and `recheck` commands
load catalogs this way.  The single-entry commands (`lambda`,
`derivations`, `su3`) parse the built-ins and validate only the entry
they name, so an invalid entry elsewhere does not stop them.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources
from typing import Optional

from .derivations import DerivationFamily, verify_derivation
from .errors import (
    MALFORMED,
    DslSyntaxError,
    G2CertError,
    IndexOutOfRange,
    ValidationFailure,
)
from .exprs import MAX_DEPTH, parse_polynomial, parse_tuple
from .forms import KForm
from .lie import LieAlgebra, unimodular_check, validate, verify_nilradical
from .poly import Polynomial

_BASIS_RE = re.compile(r"e([1-9])([1-9])")


def _name_map(name: str) -> Polynomial:
    """eIJ is a basis symbol, a name with '_' is kept, any other bare name is
    a family parameter."""
    if "_" in name or _BASIS_RE.fullmatch(name):
        return Polynomial.var(name)
    return Polynomial.var(f"fam_{name}")


def parse_structure_equations(text: str, dim: Optional[int] = None, name: str = "") -> LieAlgebra:
    """Parse an n-tuple of structure equations into a validated LieAlgebra.

    Raises DslSyntaxError / IndexOutOfRange on malformed input and
    JacobiFailure when d^2 != 0.  Errors found after parsing, in a term of
    a slot, carry the position where that slot starts.
    """
    slots = parse_tuple(text, name_map=_name_map)
    n = dim if dim is not None else len(slots)
    if len(slots) != n:
        raise DslSyntaxError(text, 0, f"{n} slots, got {len(slots)}")
    differentials = []
    for start, slot in slots:
        coeffs = {}
        basis = {v for v in slot.variables() if _BASIS_RE.fullmatch(v)}
        for mono, coeff in slot.collect(basis).items():
            if not mono:
                raise DslSyntaxError(text, start, "a 2-form (scalar terms are not allowed)")
            if len(mono) > 1 or mono[0][1] != 1:
                raise DslSyntaxError(text, start, "exactly one basis factor eIJ per term")
            var = mono[0][0]
            i, j = int(var[1]), int(var[2])
            if i > n or j > n:
                raise IndexOutOfRange(
                    f"index in {var} exceeds dimension {n} (slot at position {start})"
                )
            if i >= j:
                raise DslSyntaxError(text, start, "strictly increasing basis indices")
            coeffs[(1 << (i - 1)) | (1 << (j - 1))] = coeff
        differentials.append(KForm(n, 2, coeffs))
    algebra = LieAlgebra(n, differentials, name=name)
    validate(algebra)
    return algebra


# -- catalog entries -----------------------------------------------------

ATOM_OPS = ("ne", "eq", "gt", "ge")


class Atom:
    """A domain assumption on family parameters: poly `op` 0."""

    __slots__ = ("op", "poly")

    def __init__(self, op: str, poly: Polynomial):
        self.op = op
        self.poly = poly

    @staticmethod
    def from_json(node) -> "Atom":
        op, text = node
        if op not in ATOM_OPS:
            raise ValueError(f"unknown atom op {op!r}")
        return Atom(op, parse_polynomial(text))

    def holds(self, assignment) -> bool:
        return self.admits(self.poly.evaluate(assignment))

    def admits(self, value) -> bool:
        """True when a value of poly meets `op` 0.  Only the sign of the
        value is read, so a positive multiple of it gives the same answer."""
        if self.op == "ne":
            return value != 0
        if self.op == "eq":
            return value == 0
        if self.op == "gt":
            return value > 0
        return value >= 0

    def __str__(self):
        sym = {"ne": "!=", "eq": "=", "gt": ">", "ge": ">="}[self.op]
        return f"{self.poly} {sym} 0"


def expand_witness(node, depth: int = 0) -> Polynomial:
    """The polynomial of a nonnegativity witness tree: ["square", p] is p*p,
    ["const", c] is c > 0, ["sum", ...] and ["product", ...] combine their
    children, so it is nonnegative at every real point.  Raises ValueError
    on an unknown kind, a wrong arity, a constant <= 0 or a node nested
    deeper than MAX_DEPTH."""
    if depth > MAX_DEPTH:
        raise ValueError(f"a witness tree nests at most {MAX_DEPTH} deep")
    kind, args = (node[0], node[1:]) if isinstance(node, list) and node else (None, ())
    if kind == "square" and len(args) == 1:
        base = parse_polynomial(args[0])
        return base * base
    if kind == "const" and len(args) == 1:
        value = _rational(args[0])
        if value <= 0:
            raise ValueError(f"witness constant {value} is not positive")
        return Polynomial.const(value)
    if kind in ("sum", "product"):
        children = [expand_witness(arg, depth + 1) for arg in args]
        return Polynomial.sum(children) if kind == "sum" else Polynomial.product(children)
    raise ValueError(f"not a witness node: {node!r}")


class FamilyParam:
    __slots__ = ("name", "atoms")

    def __init__(self, name: str, atoms: list):
        self.name = name  # bare name; the variable is fam_<name>
        self.atoms = atoms  # raw JSON; parsed by AlgebraEntry.atoms

    @property
    def var(self) -> str:
        return f"fam_{self.name}"

    @staticmethod
    def from_json(node) -> "FamilyParam":
        _known_keys(node, ("name", "atoms"), "family parameter ")
        return FamilyParam(node["name"], node.get("atoms", []))


def _known_keys(node, keys, owner: str = "") -> None:
    """Raise G2CertError naming the keys of the JSON object `node` that are
    not in `keys`; the catalog format defines no other."""
    unknown = set(_typed(dict, node)) - set(keys)
    if unknown:
        raise G2CertError(f"{owner}has unknown keys {sorted(unknown)}")


def _ints(top: int, size: int = 0) -> tuple:
    """The check of a list of `size` ints (one or more if 0) in 1..top, and what it expects."""
    return (lambda v, e: isinstance(v, list) and (len(v) == size if size else v != [])
            and all(type(i) is int and 1 <= i <= top for i in v),
            f"a list of {size or 'one or more'} ints in 1..{top}")


_LIST = (lambda v, e: isinstance(v, list), "a list")
_TEXT = (lambda v, e: isinstance(v, str), "a string")
# a field whose own parser (FIELDS, or a derivation family's) checks it later
_PARSED = (lambda v, e: True, "")
_TRIPLES = (lambda v, e: isinstance(v, list) and all(_ints(6, 3)[0](t, e) for t in v),
            "a list of lists of 3 ints in 1..6")
# the t2_zero slice reads the family parameters a and b by name
_SLICE = (lambda v, e: v is None or v == "t2_zero"
          and {"a", "b"} <= {p.name for p in e.family_params},
          'null, or "t2_zero" in an entry with family parameters a and b')
_NO_BRANCH = (lambda v, e: isinstance(v, list) and all(s.get("kind") != "branch" for s in v),
              "a list of steps other than branches")

# Each plan step kind: the dimension of the entries that run it (0 for the
# step of a stub entry, which is not validated) and its fields, each with
# check(value, entry) and what it expects; a field ending in "?" is optional,
# and a step holds no key but its kind and its fields.
PLAN_STEPS = {
    "zero_diagonal": (7, {"indices": _ints(7)}),
    "lattice_out_of_scope": (7, {}),
    "null_direction": (6, {"indices": _ints(6)}),
    "sign_product": (6, {"pair": _ints(6, 2),
                         "witness": (lambda v, e: v in e.witnesses, "a shipped witness")}),
    "gauge": (6, {"pair": _ints(6, 2), "targets": _TRIPLES, "s_matrix": _LIST, "s_params": _LIST,
                  "expect_k?": (lambda v, e: isinstance(v, dict) and set(v) <= set("123456"),
                                "a map from indices 1..6 to expressions"),
                  "expect_det_multiple_of?": _TEXT}),
    "prose_sample": (6, {"trials?": (lambda v, e: type(v) is int and v >= 0, "an int >= 0"),
                         "seed?": (lambda v, e: type(v) is int, "an int"),
                         "slice?": _SLICE, "reason?": _TEXT}),
    "trace_obstruction": (6, {}),
    "branch": (6, {"name": _TEXT, "subs?": _PARSED, "atoms?": _PARSED,
                   "derivation_family?": _PARSED, "steps?": _NO_BRANCH}),
    "stub": (0, {}),
}


def _typed(kind, node):
    if not isinstance(node, kind):
        raise TypeError(f"not a {kind.__name__}: {node!r}")
    return node


def _rational(node) -> Fraction:
    """A rational as a string or an int; not a float, which JSON rounds."""
    return Fraction(node if type(node) is int else _typed(str, node))


def _expression(node) -> Polynomial:
    return parse_polynomial(_typed(str, node))


def _su_expected(node) -> tuple:
    """The derivation substitutions {name: polynomial}, the family
    conditions as polynomials and the constant obstructions, sorted."""
    _known_keys(node, ("subs", "family", "constants"))
    return (
        {k: _expression(v) for k, v in _typed(dict, node.get("subs", {})).items()},
        [_expression(e) for e in _typed(list, node.get("family", []))],
        sorted(map(_rational, _typed(list, node.get("constants", [])))),
    )


# The fields outside plan steps that a parser of their own reads, with what
# each expects: `su_expected` of the entry, a branch's `subs` and `atoms`,
# and the `atoms` of a family parameter.
FIELDS = {
    "subs": (lambda v: {k: _rational(x) for k, x in _typed(dict, v).items()},
             "a map from family variables to rationals"),
    "atoms": (lambda v: [Atom.from_json(a) for a in _typed(list, v)],
              f"a list of [op, expression], op one of {', '.join(ATOM_OPS)}"),
    "su_expected": (_su_expected, "a map with optional subs (names to expressions), "
                    "family (a list of expressions) and constants (a list of rationals)"),
}


def _parse_field(name: str, node, owner: str = ""):
    """The field `name` of FIELDS read by its parser; G2CertError naming the
    field, its owner and what it expects when the parser rejects it."""
    parse, expected = FIELDS[name]
    try:
        return parse(node)
    except MALFORMED as exc:
        raise G2CertError(f"{owner}{name} needs {expected}, got {node!r} ({exc})") from None


class AlgebraEntry:
    """One catalog row: an algebra plus everything its pipeline needs.

    The entry alone builds its shipped objects, as shipped (branch None) or
    of a branch: the algebra, the derivation family and each gauge family
    S, and the parsed atoms, gauge expectations, `su_expected` and witness
    expansions.  Each is built (and proved) on first call and kept in a
    private cache."""

    # the public slots are the keys of a catalog entry (ENTRY_KEYS) and the
    # keyword parameters of the constructor
    __slots__ = ("name", "dim", "structure", "family_params", "nilradical", "expect_unimodular",
                 "derivation_family", "su_expected", "witnesses", "plan", "notes", "stub",
                 "_built")

    def __init__(
        self,
        name: str,
        dim: int,
        structure: str,
        family_params: Optional[list] = None,
        nilradical: Optional[list] = None,
        expect_unimodular: bool = True,
        derivation_family: Optional[dict] = None,  # raw JSON; parsed on demand
        su_expected: Optional[dict] = None,
        witnesses: Optional[dict] = None,
        plan: Optional[list] = None,
        notes: str = "",
        stub: bool = False,
    ):
        self.name = name
        self.dim = dim
        self.structure = structure
        self.family_params = [] if family_params is None else family_params
        self.nilradical = nilradical
        self.expect_unimodular = expect_unimodular
        self.derivation_family = derivation_family
        self.su_expected = su_expected
        self.witnesses = {} if witnesses is None else witnesses
        self.plan = [] if plan is None else plan
        self.notes = notes
        self.stub = stub
        self._built = {}

    @property
    def atoms(self) -> list:
        """The atoms of every family parameter, parsed."""
        return self._once(("atoms",), lambda: [
            atom for p in self.family_params
            for atom in _parse_field("atoms", p.atoms, f"family parameter {p.name!r} ")
        ])

    def _once(self, key, build):
        """build() on the first call with `key`; the kept result after."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def branch_names(self) -> list:
        """The names of the branch plan steps, distinct strings once validated."""
        return [s.get("name") for s in self.plan if s.get("kind") == "branch"]

    def branch(self, branch_name: Optional[str]) -> dict:
        """The branch plan step named `branch_name` (G2CertError if none), or
        for None the entry as shipped in the same shape: its other steps and
        its derivation family, with no values or atoms."""

        def find():
            if branch_name is None:
                steps = [s for s in self.plan if s.get("kind") != "branch"]
                return {"steps": steps, "derivation_family": self.derivation_family}
            for step in self.plan:
                if step.get("kind") == "branch" and step.get("name") == branch_name:
                    return step
            raise G2CertError(f"{self.name}: no branch named {branch_name!r}")

        return self._once(("branch", branch_name), find)

    def steps(self, branch_name: Optional[str] = None) -> list:
        """The plan steps of the entry (branches excepted) or of the branch."""
        return self.branch(branch_name).get("steps", [])

    def step(self, kind: str, branch_name: Optional[str] = None) -> dict:
        """The plan step of `kind` of the entry (branches excepted) or of the
        branch: validation allows at most one per context.  G2CertError
        when it has none."""
        for step in self.steps(branch_name):
            if step.get("kind") == kind:
                return step
        where = self.name if branch_name is None else f"{self.name} [{branch_name}]"
        raise G2CertError(f"{where}: no {kind} step in the plan")

    def branch_subs(self, branch_name: Optional[str]) -> dict:
        """The family-parameter values of the branch, as Fractions."""
        subs = self.branch(branch_name).get("subs", {})
        return self._once(
            ("subs", branch_name), lambda: _parse_field("subs", subs, f"branch {branch_name!r} ")
        )

    def build_algebra(self, branch_name: Optional[str] = None) -> LieAlgebra:
        """The validated algebra of the entry, or of the branch with its
        values substituted: d^2 = 0 holds identically in the parameters, so
        it holds after substitution."""

        def build():
            if branch_name is None:
                return parse_structure_equations(self.structure, self.dim, name=self.name)
            algebra = self.build_algebra().substitute(self.branch_subs(branch_name))
            algebra.name = f"{self.name}[{branch_name}]"
            return algebra

        return self._once(("algebra", branch_name), build)

    def _family(self, kind: str, branch_name, matrix, params) -> DerivationFamily:
        """The derivation family (kind "family") or gauge family (kind
        "gauge") of the entry or of the branch, with these JSON entries and
        parameters, Leibniz-checked on its algebra.  The branch values are
        substituted into its entries first, since a branch family is a
        derivation only on the branch-substituted algebra."""

        def build():
            algebra, subs = self.build_algebra(branch_name), self.branch_subs(branch_name)
            cells = [[parse_polynomial(cell) for cell in row] for row in matrix]
            if subs:
                cells = [[cell.substitute(subs) for cell in row] for row in cells]
            family = DerivationFamily(algebra, cells, tuple(params))
            verify_derivation(algebra, family)
            return family

        return self._once((kind, branch_name), build)

    def build_family(self, branch_name: Optional[str] = None) -> Optional[DerivationFamily]:
        """The shipped derivation family of the entry or of the branch;
        None when none is shipped."""
        node = self.branch(branch_name).get("derivation_family")
        if not node:
            return None
        _known_keys(node, ("matrix", "params"), "derivation_family ")
        return self._family("family", branch_name, node["matrix"], node["params"])

    def build_gauge_family(self, branch_name: Optional[str] = None) -> DerivationFamily:
        """The gauge family S of the gauge step of the entry or of the branch."""
        step = self.step("gauge", branch_name)
        return self._family("gauge", branch_name, step["s_matrix"], step["s_params"])

    def branch_atoms(self, branch_name: Optional[str]) -> list:
        """The atoms of the branch (none for the entry as shipped), parsed."""
        atoms = self.branch(branch_name).get("atoms", [])
        return self._once(
            ("atoms", branch_name), lambda: _parse_field("atoms", atoms, f"branch {branch_name!r} ")
        )

    def witness(self, name: str) -> Polynomial:
        """The expansion of the shipped witness tree `name`, made once."""
        return self._once(("witness", name), lambda: expand_witness(self.witnesses[name]))

    def gauge_expectations(self, branch_name: Optional[str] = None) -> tuple:
        """The parsed `expect_k` ({index: polynomial}) and
        `expect_det_multiple_of` (a polynomial, or None) of the gauge step
        of the entry or of the branch."""
        step = self.step("gauge", branch_name)
        k, det = step.get("expect_k", {}), step.get("expect_det_multiple_of")
        return self._once(("expect", branch_name), lambda: (
            {int(i): parse_polynomial(text) for i, text in k.items()},
            parse_polynomial(det) if det else None,
        ))

    def su_expectations(self) -> Optional[tuple]:
        """The parsed `su_expected` (None when not shipped): the derivation
        substitutions {name: polynomial}, the family conditions as
        polynomials and the constant obstructions as sorted Fractions."""
        node = self.su_expected
        return None if node is None else self._once(
            ("su_expected",), lambda: _parse_field("su_expected", node)
        )

    def validate_entry(self) -> None:
        """Full validation: parse every field the pipeline reads and build,
        and so prove, every shipped object; raises ValidationFailure."""
        if self.stub:
            return
        try:
            algebra = self.build_algebra()
            self.atoms  # parses the atoms of every family parameter
            declared_fam = {p.var for p in self.family_params}
            used_fam = algebra.family_parameters()
            if not used_fam <= declared_fam:
                raise G2CertError(f"undeclared family parameters {sorted(used_fam - declared_fam)}")
            if unimodular_check(algebra) != self.expect_unimodular:
                raise G2CertError(
                    "unimodularity check does not match the declared expectation"
                )
            nilradical = self.nilradical
            if nilradical is not None:
                if not (isinstance(nilradical, list) and all(type(i) is int for i in nilradical)):
                    raise G2CertError(f"nilradical needs a list of ints, got {nilradical!r}")
                verify_nilradical(algebra, nilradical)
            elif self.dim == 6 and self.plan:
                # its SU(3) stage reads the strong-unimodularity traces on the nilradical
                raise G2CertError("a dimension-6 entry with a plan needs a nilradical")
            names = self.branch_names()
            if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
                raise G2CertError(f"branch names must be distinct strings, got {names}")
            for step in [*self.plan, *(s for name in names for s in self.steps(name))]:
                self._check_step(step)
            for branch_name in [None, *names]:
                self.build_algebra(branch_name)
                self.build_family(branch_name)
                self.branch_atoms(branch_name)
                steps = self.steps(branch_name)
                kinds = [step.get("kind") for step in steps]
                if len(set(kinds)) != len(kinds):
                    raise G2CertError(f"a context lists a step kind more than once: {kinds}")
                if "gauge" in kinds:
                    step = self.step("gauge", branch_name)
                    targets, params = len(step["targets"]), len(step["s_params"])
                    if targets != params:
                        raise G2CertError(f"gauge step needs one target per s_param, "
                                          f"got {targets} targets and {params} s_params")
                    self.build_gauge_family(branch_name)
                    self.gauge_expectations(branch_name)
                elif any(step.get("slice") == "t2_zero" for step in steps):
                    raise G2CertError("the t2_zero slice needs a gauge step")
            self.su_expectations()
            for name in self.witnesses:
                self.witness(name)
        except MALFORMED as exc:
            raise ValidationFailure(self.name, exc) from exc

    def _check_step(self, step: dict) -> None:
        """Raise G2CertError unless PLAN_STEPS has the step's kind for this
        entry's dimension and the step's fields pass their checks."""
        kind = step.get("kind")
        dim, checks = PLAN_STEPS.get(kind, (0, {}))
        if dim != self.dim:
            raise G2CertError(f"no plan step {kind!r} in a dimension-{self.dim} entry")
        _known_keys(step, {"kind", *(field.rstrip("?") for field in checks)}, f"{kind} step ")
        for field, (check, expected) in checks.items():
            name = field.rstrip("?")
            if (name in step or name == field) and not (name in step and check(step[name], self)):
                raise G2CertError(f"{kind} step needs {name}: {expected}, got {step.get(name)!r}")

    @staticmethod
    def from_json(node) -> "AlgebraEntry":
        _known_keys(node, ENTRY_KEYS, "entry ")
        for key, kind in (("witnesses", dict), ("plan", list)):
            _typed(kind, node.get(key, kind()))  # null is not an empty default
        values = {"structure": "", **node}  # a stub ships no structure
        values["family_params"] = [FamilyParam.from_json(p) for p in node.get("family_params", [])]
        return AlgebraEntry(**values)


ENTRY_KEYS = tuple(key for key in AlgebraEntry.__slots__ if not key.startswith("_"))

SCHEMA = "g2cert-catalog/1"
BUILTIN_DATASETS = ("table1", "nonsolvable", "indecomposable")


def parse_catalog_text(text: str) -> list:
    """The entries of a catalog document, read but not yet validated.  A
    document that is not a catalog, or an entry that lacks a field or holds
    a value of the wrong form, raises ValidationFailure."""
    try:
        document = json.loads(text) if text.strip() else {"schema": SCHEMA, "entries": []}
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValidationFailure("<catalog>", f"not a JSON document: {exc}") from None
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema != SCHEMA:
        raise ValidationFailure("<catalog>", f"unsupported schema {schema!r}")
    nodes = document.get("entries", [])
    if not isinstance(nodes, list):
        raise ValidationFailure("<catalog>", f"entries is not a list: {nodes!r}")
    entries = []
    for index, node in enumerate(nodes):
        try:
            entries.append(AlgebraEntry.from_json(node))
        except MALFORMED as exc:
            name = node.get("name") if isinstance(node, dict) else None
            label = name if isinstance(name, str) else f"<entry {index}>"
            raise ValidationFailure(label, f"malformed entry: {exc!r}") from None
    return entries


def load_catalog_text(text: str) -> list:
    """The entries of a catalog document, each fully validated; raises
    ValidationFailure as parse_catalog_text does, or for the first entry
    that fails validation."""
    entries = parse_catalog_text(text)
    for entry in entries:
        entry.validate_entry()
    return entries


def load_catalog(path) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return load_catalog_text(handle.read())


def builtin_text(name: str) -> str:
    """The JSON text of a built-in dataset."""
    if name not in BUILTIN_DATASETS:
        raise ValidationFailure(name, f"unknown built-in dataset (have {BUILTIN_DATASETS})")
    return resources.files("g2cert.data").joinpath(f"{name}.json").read_text(encoding="utf-8")


def load_builtin(name: str) -> list:
    return load_catalog_text(builtin_text(name))


def load_any(spec: str) -> list:
    """A built-in dataset name, 'all' for every built-in, or a file path."""
    if spec == "all":
        entries = []
        for name in BUILTIN_DATASETS:
            entries.extend(load_builtin(name))
        return entries
    if spec in BUILTIN_DATASETS:
        return load_builtin(spec)
    return load_catalog(spec)
