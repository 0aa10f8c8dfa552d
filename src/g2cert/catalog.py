"""Machine-readable catalog of Lie algebras: DSL parsing, validation, and
JSON persistence.

Structure equations use the same notation as the source tables: a
parenthesized n-tuple, one slot per de^k, each slot a signed sum of terms
c*eIJ where c is a rational literal (default 1) or a parenthesized family
parameter expression, and eIJ abbreviates e^i ^ e^j with single-digit
indices (n <= 9).  Examples:

    (-e13, e23, 0, 0, 0, 0)
    (-e24 - 2/3*e15, -e34 + 1/3*e25, 4/3*e35, -e45, 0, 0)
    (-e16 - e35, -l*e26 - e45, (1+2*l)*e36, (2+l)*e46, (-2-2*l)*e56, 0)

Bare identifiers inside a structure slot are family parameters and get the
fam_ prefix; expressions elsewhere (witnesses, derivation matrices,
constraints) use full variable names (alpha_14, a_1, fam_p, ...).

The persistence format is a JSON document, schema "g2cert-catalog/1",
with entries re-validated on load and a byte-stable canonical form.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Optional

from .derivations import DerivationFamily, verify_derivation
from .errors import (
    DslSyntaxError,
    G2CertError,
    IndexOutOfRange,
    ValidationFailure,
)
from .exprs import _Parser, parse_polynomial
from .forms import KForm
from .lie import LieAlgebra, unimodular_check, validate, verify_nilradical
from .poly import NonNegWitness, Polynomial

_BASIS_RE = re.compile(r"^e([1-9])([1-9])$")


def _fam_name_map(name: str) -> Polynomial:
    return Polynomial.var(name if "_" in name else f"fam_{name}")


class _SlotParser(_Parser):
    """Expression parser extended with basis atoms e.g. e13 -> (1, 3)."""

    def __init__(self, text: str, dim: int):
        super().__init__(text, name_map=_fam_name_map)
        self.dim = dim

    # values are (coefficient Polynomial, mask or None); wedge factors of a
    # product multiply coefficients and set the mask (at most one per term)
    def parse_slot(self):
        acc = {}

        def add(mask, coeff):
            if mask in acc:
                acc[mask] = acc[mask] + coeff
            else:
                acc[mask] = coeff

        coeff, mask = self._slot_term()
        add(mask, coeff)
        while True:
            kind, tok, _ = self.peek()
            if kind == "punct" and tok in "+-":
                self.advance()
                coeff, mask = self._slot_term()
                add(mask, coeff if tok == "+" else -coeff)
            else:
                break
        return acc

    def _slot_term(self):
        coeff = Polynomial.const(1)
        mask = None
        sign = 1
        while True:
            kind, tok, _ = self.peek()
            if kind == "punct" and tok == "-":
                self.advance()
                sign = -sign
                continue
            break

        def take_factor():
            nonlocal coeff, mask
            factor_coeff, factor_mask, pos = self._slot_factor()
            if factor_mask is not None:
                if mask is not None:
                    raise DslSyntaxError(self.text, pos, "at most one basis factor per term")
                mask = factor_mask
            coeff = coeff * factor_coeff

        take_factor()
        while True:
            kind, tok, pos = self.peek()
            if kind == "punct" and tok == "*":
                self.advance()
                take_factor()
            elif kind == "punct" and tok == "/":
                self.advance()
                rhs, rhs_mask, rpos = self._slot_factor()
                if rhs_mask is not None or not rhs.is_constant() or rhs.is_zero():
                    raise DslSyntaxError(self.text, rpos, "division by a nonzero rational constant")
                coeff = coeff * (1 / rhs.constant_value())
            else:
                break
        if sign < 0:
            coeff = -coeff
        return coeff, mask

    def _slot_factor(self):
        kind, tok, pos = self.peek()
        if kind == "name":
            m = _BASIS_RE.match(tok)
            if m:
                self.advance()
                i, j = int(m.group(1)), int(m.group(2))
                if i > self.dim or j > self.dim:
                    raise IndexOutOfRange(f"index in {tok} exceeds dimension {self.dim}")
                if i >= j:
                    raise DslSyntaxError(self.text, pos, "strictly increasing basis indices")
                return Polynomial.const(1), (1 << (i - 1)) | (1 << (j - 1)), pos
            self.advance()
            return self.name_map(tok), None, pos
        if kind == "int":
            self.advance()
            value = Polynomial.const(int(tok))
            kind2, tok2, _ = self.peek()
            if kind2 == "punct" and tok2 == "^":
                self.advance()
                kind3, tok3, pos3 = self.peek()
                if kind3 != "int":
                    raise DslSyntaxError(self.text, pos3, "an integer exponent")
                self.advance()
                value = value ** int(tok3)
            return value, None, pos
        if kind == "punct" and tok == "(":
            self.advance()
            value = self.parse_expr()
            self.expect_punct(")")
            kind2, tok2, _ = self.peek()
            if kind2 == "punct" and tok2 == "^":
                self.advance()
                kind3, tok3, pos3 = self.peek()
                if kind3 != "int":
                    raise DslSyntaxError(self.text, pos3, "an integer exponent")
                self.advance()
                value = value ** int(tok3)
            return value, None, pos
        raise DslSyntaxError(self.text, pos, "a coefficient or basis factor eIJ")


def parse_structure_equations(text: str, dim: Optional[int] = None, name: str = "") -> LieAlgebra:
    """Parse an n-tuple of structure equations into a validated LieAlgebra.

    Raises DslSyntaxError / IndexOutOfRange on malformed input and
    JacobiFailure when d^2 != 0.
    """
    stripped = text.strip()
    if not stripped.startswith("(") or not stripped.endswith(")"):
        raise DslSyntaxError(text, 0, "a parenthesized tuple")
    body = stripped[1:-1]
    slots = _split_top_level(body)
    n = dim if dim is not None else len(slots)
    if len(slots) != n:
        raise DslSyntaxError(text, 0, f"{n} slots, got {len(slots)}")
    differentials = []
    for slot in slots:
        parser = _SlotParser(slot, n)
        acc = parser.parse_slot()
        kind, _, pos = parser.peek()
        if kind != "end":
            raise DslSyntaxError(slot, pos, "end of slot")
        coeffs = {}
        constant = acc.pop(None, Polynomial.zero())
        if not constant.is_zero():
            raise DslSyntaxError(slot, 0, "a 2-form (scalar terms are not allowed)")
        for mask, coeff in acc.items():
            if not coeff.is_zero():
                coeffs[mask] = coeff
        differentials.append(KForm(n, 2, coeffs))
    algebra = LieAlgebra(n, differentials, name=name)
    validate(algebra)
    return algebra


def _split_top_level(body: str):
    slots = []
    depth = 0
    current = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            slots.append("".join(current))
            current = []
        else:
            current.append(ch)
    slots.append("".join(current))
    return slots


# -- catalog entries -----------------------------------------------------

ATOM_OPS = ("ne", "eq", "gt", "ge")


@dataclass
class Atom:
    """A domain assumption on family parameters: poly `op` 0."""

    op: str
    poly: Polynomial

    @staticmethod
    def from_json(node) -> "Atom":
        op, text = node
        if op not in ATOM_OPS:
            raise ValueError(f"unknown atom op {op!r}")
        return Atom(op, parse_polynomial(text))

    def to_json(self):
        return [self.op, str(self.poly)]

    def holds(self, assignment) -> bool:
        value = self.poly.evaluate(assignment)
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


@dataclass
class FamilyParam:
    name: str  # bare name; the variable is fam_<name>
    atoms: list = field(default_factory=list)

    @property
    def var(self) -> str:
        return f"fam_{self.name}"

    @staticmethod
    def from_json(node) -> "FamilyParam":
        return FamilyParam(node["name"], [Atom.from_json(a) for a in node.get("atoms", [])])

    def to_json(self):
        return {"name": self.name, "atoms": [a.to_json() for a in self.atoms]}


def family_from_json(algebra: LieAlgebra, node, subs=None) -> DerivationFamily:
    """Parse a derivation family against `algebra`, substituting `subs` into
    its entries first (a branch family satisfies Leibniz only on the
    branch-substituted algebra), then check the Leibniz identity."""
    matrix = [[parse_polynomial(cell) for cell in row] for row in node["matrix"]]
    if subs:
        matrix = [[cell.substitute(subs) for cell in row] for row in matrix]
    family = DerivationFamily(algebra, matrix, tuple(node["params"]))
    verify_derivation(algebra, family)
    return family


def _family_to_json(family: DerivationFamily):
    return {
        "params": list(family.params),
        "matrix": [[str(cell) for cell in row] for row in family.matrix],
    }


@dataclass
class AlgebraEntry:
    """One catalog row: an algebra plus everything its pipeline needs."""

    name: str
    dim: int
    structure: str
    family_params: list = field(default_factory=list)
    nilradical: Optional[list] = None
    expect_unimodular: bool = True
    derivation_family: Optional[dict] = None  # raw JSON; parsed on demand
    su_expected: Optional[dict] = None
    witnesses: dict = field(default_factory=dict)
    plan: list = field(default_factory=list)
    notes: str = ""
    stub: bool = False
    algebra: Optional[LieAlgebra] = None

    @property
    def atoms(self) -> list:
        return [a for p in self.family_params for a in p.atoms]

    def build_algebra(self) -> LieAlgebra:
        if self.algebra is None:
            self.algebra = parse_structure_equations(self.structure, self.dim, name=self.name)
        return self.algebra

    def build_derivation_family(self) -> Optional[DerivationFamily]:
        if self.derivation_family is None:
            return None
        return family_from_json(self.build_algebra(), self.derivation_family)

    def witness(self, key: str) -> Optional[NonNegWitness]:
        node = self.witnesses.get(key)
        if node is None:
            return None
        return NonNegWitness.from_json(node)

    def validate_entry(self) -> None:
        """Full validation; raises ValidationFailure with the cause."""
        if self.stub:
            return
        try:
            algebra = self.build_algebra()
            declared_fam = {p.var for p in self.family_params}
            used_fam = algebra.family_parameters()
            if not used_fam <= declared_fam:
                raise G2CertError(f"undeclared family parameters {sorted(used_fam - declared_fam)}")
            if unimodular_check(algebra) != self.expect_unimodular:
                raise G2CertError(
                    "unimodularity check does not match the declared expectation"
                )
            if self.nilradical is not None:
                verify_nilradical(algebra, self.nilradical)
            self.build_derivation_family()
            for step in self.plan:
                if step.get("kind") == "branch":
                    branch_algebra = self.branch_algebra(step)
                    subs = {k: Fraction(v) for k, v in step.get("subs", {}).items()}
                    if step.get("derivation_family"):
                        family_from_json(branch_algebra, step["derivation_family"], subs)
                    for sub in step.get("steps", []):
                        if sub.get("kind") == "gauge":
                            family_from_json(
                                branch_algebra,
                                {"params": sub["s_params"], "matrix": sub["s_matrix"]},
                                subs,
                            )
                elif step.get("kind") == "gauge":
                    family_from_json(
                        algebra, {"params": step["s_params"], "matrix": step["s_matrix"]}
                    )
            for key in self.witnesses:
                self.witness(key)
        except G2CertError as exc:
            raise ValidationFailure(self.name, exc) from exc

    def branch_algebra(self, branch_step) -> LieAlgebra:
        subs = {k: Fraction(v) for k, v in branch_step.get("subs", {}).items()}
        base = parse_structure_equations(self.structure, self.dim, name=self.name)
        differentials = [d.substitute(subs) for d in base.differentials]
        return LieAlgebra(self.dim, differentials, name=f"{self.name}[{branch_step.get('name', 'branch')}]")

    @staticmethod
    def from_json(node) -> "AlgebraEntry":
        return AlgebraEntry(
            name=node["name"],
            dim=node["dim"],
            structure=node.get("structure", ""),
            family_params=[FamilyParam.from_json(p) for p in node.get("family_params", [])],
            nilradical=node.get("nilradical"),
            expect_unimodular=node.get("expect_unimodular", True),
            derivation_family=node.get("derivation_family"),
            su_expected=node.get("su_expected"),
            witnesses=node.get("witnesses", {}),
            plan=node.get("plan", []),
            notes=node.get("notes", ""),
            stub=node.get("stub", False),
        )

    def to_json(self):
        node = {"name": self.name, "dim": self.dim}
        if self.stub:
            node["stub"] = True
        if self.structure:
            node["structure"] = self.structure
        if self.family_params:
            node["family_params"] = [p.to_json() for p in self.family_params]
        if self.nilradical is not None:
            node["nilradical"] = self.nilradical
        if not self.expect_unimodular:
            node["expect_unimodular"] = False
        if self.derivation_family is not None:
            node["derivation_family"] = self.derivation_family
        if self.su_expected is not None:
            node["su_expected"] = self.su_expected
        if self.witnesses:
            node["witnesses"] = self.witnesses
        if self.plan:
            node["plan"] = self.plan
        if self.notes:
            node["notes"] = self.notes
        return node


SCHEMA = "g2cert-catalog/1"
BUILTIN_DATASETS = ("table1", "nonsolvable", "indecomposable")


def _canonical_dump(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def load_catalog_text(text: str) -> list:
    document = json.loads(text) if text.strip() else {"schema": SCHEMA, "entries": []}
    if document.get("schema") != SCHEMA:
        raise ValidationFailure("<catalog>", f"unsupported schema {document.get('schema')!r}")
    entries = [AlgebraEntry.from_json(node) for node in document.get("entries", [])]
    for entry in entries:
        entry.validate_entry()
    return entries


def load_catalog(path) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return load_catalog_text(handle.read())


def save_catalog(entries, path, name: str = "") -> None:
    document = {"schema": SCHEMA, "entries": [e.to_json() for e in entries]}
    if name:
        document["name"] = name
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_canonical_dump(document))


def load_builtin(name: str) -> list:
    if name not in BUILTIN_DATASETS:
        raise ValidationFailure(name, f"unknown built-in dataset (have {BUILTIN_DATASETS})")
    text = resources.files("g2cert.data").joinpath(f"{name}.json").read_text(encoding="utf-8")
    return load_catalog_text(text)


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
