"""Derivations and the strong unimodularity of one-dimensional extensions.

A DerivationFamily is an n x n matrix whose entries are polynomials, affine
in the derivation parameters a_1..a_m (and possibly involving structure
family parameters).  The Leibniz identity D[x,y] = [Dx,y] + [x,Dy] is always
verified identically in every symbol, and it is read off d as Jacobi is:
D is a derivation iff d(D* e^k) = D*(de^k) for every k (leibniz_residuals).
verify_derivation reports the first nonzero residual coefficient, and
solve_derivations takes its linear system from the residuals of the
generic D.

The extension s x_D R adds a generator e_{n+1} acting on s by D.  It is a
Lie algebra exactly when D satisfies the Leibniz identity, so no extension
is built.  Its two quantities come from s and D on the package's kernels.
D* acts on forms through forms.antiderivation, the kernel behind
lie.ce_differential too.  The strong-unimodularity trace conditions are
differences of the traces of D and of each ad_{e_j} on consecutive terms
of the descending central series of the nilradical.
lie.descending_central_series builds those terms over Q from the brackets
inside the nilradical, read once as rationals off d.  lie.Subspace.trace
reads each trace from the operator's matrix (column j the image of e_j):
D's own, and ad_{e_j}'s read off d by lie.adjoint.  So each trace is a
polynomial in the parameters of the operator, and every solve here (Der(s)
and the linear trace conditions) is over Q.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .errors import (
    DimensionMismatch,
    LeibnizViolation,
    NonNumericEntries,
)
from .forms import KForm, antiderivation, indices_of
from .lie import LieAlgebra, adjoint, ce_differential, descending_central_series
from .poly import Polynomial


class DerivationFamily:
    """Matrix family of derivations of a Lie algebra, affine in `params`.
    The matrix is the whole family: its size is the algebra's dimension."""

    __slots__ = ("matrix", "params")

    def __init__(self, matrix: list, params: tuple = ()):
        self.matrix = matrix  # n x n nested list of Polynomial; column j is the image of e_j
        self.params = params

    def substitute(self, mapping) -> "DerivationFamily":
        """The family with `mapping` substituted into every entry, without
        the parameters it fixes; the family itself for an empty mapping."""
        if not mapping:
            return self
        new = [[entry.substitute(mapping) for entry in row] for row in self.matrix]
        params = tuple(p for p in self.params if p not in mapping)
        return DerivationFamily(new, params)


def leibniz_residuals(algebra: LieAlgebra, family: DerivationFamily) -> list:
    """d(D* e^k) - D*(de^k) for every k; all zero iff D is a derivation.

    Both terms are 2-forms, and on (e_i, e_j) they give -e^k(D[e_i, e_j])
    and -e^k([De_i, e_j] + [e_i, De_j]).  So the coefficient of e^{ij} in
    the k-th residual is minus the e_k-component of the Leibniz defect
    D[e_i, e_j] - [De_i, e_j] - [e_i, De_j].
    """
    return [
        ce_differential(algebra, KForm(algebra.dim, 1, image))
        - dstar_action(family, algebra.d_basis(k))
        for k, image in enumerate(_dual_images(family), start=1)
    ]


def verify_derivation(algebra: LieAlgebra, family: DerivationFamily) -> bool:
    """Leibniz identity, checked identically in derivation and family
    parameters.  Raises LeibnizViolation with the first offending (i, j, k),
    i < j, in lexicographic order, and the e_k-component of the defect."""
    defects = [
        (indices_of(mask), k, -coeff)
        for k, residual in enumerate(leibniz_residuals(algebra, family), start=1)
        for mask, coeff in residual.coeffs.items()
    ]
    if defects:
        (i, j), k, residual = min(defects, key=lambda defect: defect[:2])
        raise LeibnizViolation((i, j, k), residual)
    return True


def solve_derivations(algebra: LieAlgebra) -> DerivationFamily:
    """Basis of Der(s) as one affine family with parameters a_1, a_2, ...

    Structure constants must be numeric.  The Leibniz residuals of the
    generic D, with one unknown per entry D[l][k] in row-major order, are
    linear in the unknowns; their coefficients are the rows of the system.
    Free parameters are named in row-major pivot order of the (l, k) matrix
    entries, which makes the parametrization canonical.
    """
    n = algebra.dim
    if algebra.family_parameters():
        raise NonNumericEntries(
            "solve_derivations needs numeric structure constants; fix the family parameters"
        )
    column = {f"D_{l}_{c}": l * n + c for l in range(n) for c in range(n)}
    generic = DerivationFamily([[Polynomial.var(f"D_{l}_{c}") for c in range(n)] for l in range(n)])
    rows = []
    for residual in leibniz_residuals(algebra, generic):
        for coeff in residual.coeffs.values():
            row = [0] * (n * n)
            for ((name, _),), value in coeff.terms.items():
                row[column[name]] = value
            rows.append(row)
    basis = linalg.nullspace(rows, n * n)
    matrix = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    params = []
    for m, vec in enumerate(basis, start=1):
        name = f"a_{m}"
        params.append(name)
        a = Polynomial.var(name)
        for l in range(n):
            for c in range(n):
                coeff = vec[l * n + c]
                if coeff:
                    matrix[l][c] = matrix[l][c] + a * Polynomial.const(coeff)
    family = DerivationFamily(matrix, tuple(params))
    verify_derivation(algebra, family)
    return family


def _dual_images(family: DerivationFamily) -> list:
    """D* e^k = sum_l D[k][l] e^l for every k, as mask -> coefficient dicts."""
    return [{1 << l: entry for l, entry in enumerate(row) if entry} for row in family.matrix]


def dstar_action(family: DerivationFamily, f: KForm) -> KForm:
    """(D*f)(x_1..x_k) = sum_m f(x_1, .., D x_m, .., x_k).

    The antiderivation of degree 0 extending the 1-forms
    D* e^j = sum_k D[j][k] e^k.  For D = c*Id on a k-form this returns k*c*f.
    """
    n = len(family.matrix)
    if f.dim != n:
        raise DimensionMismatch("form dimension differs from the derivation matrix")
    return KForm(n, f.degree, antiderivation(_dual_images(family), f.coeffs))


class StrongUnimodularity:
    """Trace conditions of D and of every ad_{e_j} on the base-nilradical
    quotients n^i / n^(i+1).

    derivation_subs: solved linear constraints on derivation parameters,
    in triangular (substitution) form.
    family_equations: conditions involving only structure family parameters
    (e.g. 2p = 0 or l + 1 = 0).
    constant_obstructions: nonzero rational traces; when present, no
    extension of this base is strongly unimodular in the base-nilradical
    sense, whatever the parameters.
    """

    __slots__ = ("derivation_subs", "family_equations", "constant_obstructions", "raw_traces")

    def __init__(self, derivation_subs: dict, family_equations: list,
                 constant_obstructions: list, raw_traces: list):
        self.derivation_subs = derivation_subs
        self.family_equations = family_equations
        self.constant_obstructions = constant_obstructions
        self.raw_traces = raw_traces


def strongly_unimodular_constraints(
    base: LieAlgebra, D: DerivationFamily, nilradical: Sequence[int]
) -> StrongUnimodularity:
    """Equate to zero the traces of the derivation family D and of every
    ad_{e_j} of the base on each quotient of the descending central series
    of the base nilradical, span(e_i : i in nilradical) (the strong
    unimodularity of base x_D R).

    Linear conditions in the derivation parameters are returned solved in
    triangular form; conditions only involving family parameters are kept
    as equations; nonzero constants are reported separately (they mean the
    trace conditions cannot be satisfied at all).

    Subspace.trace checks that each operator preserves each series term (for
    the ad_{e_j} on n, that n is an ideal) or raises NilradicalNotInvariant.
    """
    series = descending_central_series(base, nilradical)
    operators = [("D", D.matrix)]
    operators += [(f"ad_e{i}", ad) for i, ad in enumerate(adjoint(base), start=1)]
    # the trace on n^level / n^(level+1) is the difference of the traces on
    # the two terms; the trace on each term checks that the term is preserved
    term_traces = [[term.trace(matrix) for term in series] for _, matrix in operators]
    traces = []
    for level in range(len(series) - 1):
        for (name, _), per_term in zip(operators, term_traces):
            tr = per_term[level] - per_term[level + 1]
            if not tr.is_zero():
                traces.append((name, level, tr))
    deriv_rows = []
    family_eqs = []
    constants = []
    dparams = sorted(
        {v for _, _, p in traces for v in p.variables() if v.startswith("a_")},
        key=lambda s: (len(s), s),
    )
    names = set(dparams)
    for name, level, poly in traces:
        if poly.is_constant():
            constants.append(poly.constant_value())
            continue
        # linear form in the derivation parameters (constant coefficients)
        parts = poly.collect(names)
        row = [parts.pop(((p, 1),), Polynomial.zero()) for p in dparams]
        if not parts and all(c.is_constant() for c in row):
            deriv_rows.append([c.constant_value() for c in row])
        else:
            # a family condition, or a nonlinear or mixed one: keep as a raw equation
            eq = poly * (1 / poly.normal_scale())
            if all(existing != eq for existing in family_eqs):
                family_eqs.append(eq)
    subs = {}
    if deriv_rows:
        rows, pivots = linalg.rref(deriv_rows, len(dparams))
        for r, c in enumerate(pivots):
            expr = Polynomial.zero()
            for other in range(c + 1, len(dparams)):
                if rows[r][other]:
                    expr = expr - Polynomial.const(rows[r][other]) * Polynomial.var(dparams[other])
            subs[dparams[c]] = expr
    constants = sorted(set(constants))
    return StrongUnimodularity(subs, family_eqs, constants, traces)

