"""Independent slow oracles used to freeze expected values.

Most of these avoid the package's bitmask machinery: forms are evaluated
as alternating multilinear maps by summing over permutations, so they
provide an independent route to the same numbers.  The SU(3) verdict
oracle (su3_check) instead builds K by contraction and wedge, h entry by
entry with form_value, and tests definiteness with det_fraction minors, so
it shares neither the K table nor the h product with su3_passes_int.

The last few helpers are test-side references that no pipeline path
needs: a catalog writer for the save/load round trips, witness expansion
by schoolbook products, the extension s x_D R built as a Lie algebra,
plain substitution of rational functions and a schoolbook Cramer
substitution to check substitute_cramer against, readers for subspace equality and exact
polynomial quotients, and quotient traces by per-generator elimination to
check Subspace.trace against.  The SU(3) pair references are here too:
the standard pair, the negative control that pulls it back, and the
sampler's draw as it was before it was generated whole (reference_draw),
with its flat kernels, and flat_kernel, term-by-term values of a
CompiledForm kernel.

The package does its linear algebra over Q only.  RationalFunction, the
field Q(params), lives here: the references that eliminate in full
(rank_in_span, quotient_trace, solve_unique) and substitute_rational work
over it, so they take symbolic rows, which a lie.Subspace does not hold.

The package reads every bracket off d (lie.adjoint).  The reference here is
the bracket loop: [x, y] = sum_{i,j} x_i y_j [e_i, e_j] over the structure
constants e^k([e_i, e_j]) = -de^k(e_i, e_j), with vectors as plain tuples
of Polynomial coordinates.  The checks that the package reads off d are
built on it: ad_{e_i}, the Leibniz defect, the ideal, nilpotency and
derived-algebra tests on Subspaces, and tr(ad e_i).
"""

import enum
import json
import random
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt, lcm

from g2cert.catalog import SCHEMA, AlgebraEntry
from g2cert.errors import AtomUnsatisfiableAfterBudget, NilradicalNotInvariant, NonNumericEntries
from g2cert.forms import (
    KForm,
    contractions,
    form_value,
    indices_of,
    mask_of,
    pullback,
    top_coefficient,
    wedge,
    wedge_coeffs,
)
from g2cert.hitchin import Bilinear
from g2cert.lie import LieAlgebra, Subspace, validate
from g2cert.linalg import det_fraction
from g2cert.exprs import parse_polynomial
from g2cert.numeric import candidate_conditions_int, eval_form_int, su3_passes_int
from g2cert.poly import P_ONE, P_ZERO, Polynomial


class RationalFunction:
    """Quotient of two polynomials, reduced by rational content only: the
    field Q(params) that the reference eliminations here work over.

    The denominator is normalized to have content 1 and a positive leading
    coefficient; no polynomial gcd is computed.  Equality is decided by
    cross-multiplication, which is exact.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = P_ONE
        else:
            scale = den.normal_scale()
            if scale != 1:
                inv = 1 / scale
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(P_ZERO, P_ONE)

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, P_ONE)

    @staticmethod
    def from_scalar(value) -> "RationalFunction":
        return RationalFunction(Polynomial.const(value), P_ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_polynomial(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return RationalFunction(self.den, self.num) ** (-exponent)
        return RationalFunction(self.num**exponent, self.den**exponent)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __bool__(self):
        return not self.num.is_zero()

    def __str__(self):
        if self.den == P_ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


_PARITY_CACHE = {}


def _parity(perm) -> int:
    key = tuple(perm)
    if key in _PARITY_CACHE:
        return _PARITY_CACHE[key]
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    sign = -1 if inversions % 2 else 1
    _PARITY_CACHE[key] = sign
    return sign


def oracle_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q by the schoolbook loop over term pairs: merge the two
    name-sorted monomials adding exponents, and accumulate Fraction
    coefficients, dropping a monomial whose coefficient cancels."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            merged = []
            i = j = 0
            while i < len(m1) and j < len(m2):
                (v1, e1), (v2, e2) = m1[i], m2[j]
                if v1 == v2:
                    merged.append((v1, e1 + e2))
                    i += 1
                    j += 1
                elif v1 < v2:
                    merged.append(m1[i])
                    i += 1
                else:
                    merged.append(m2[j])
                    j += 1
            mono = tuple(merged) + m1[i:] + m2[j:]
            new = out.get(mono, Fraction(0)) + c1 * c2
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
    return Polynomial(out)


def oracle_det(matrix) -> Polynomial:
    """The determinant of a square matrix of polynomials as the sum over
    permutations p of sign(p) * prod_i matrix[i][p(i)]."""
    total = P_ZERO
    for perm in permutations(range(len(matrix))):
        term = Polynomial.const(_parity(perm))
        for i, j in enumerate(perm):
            term = oracle_mul(term, matrix[i][j])
        total = total + term
    return total


def eval_form(form: KForm, vectors) -> Polynomial:
    """f(v_1, ..., v_k) by full antisymmetrization over coordinate slots."""
    k = form.degree
    assert len(vectors) == k
    total = Polynomial.zero()
    for mask, coeff in form.coeffs.items():
        idx = indices_of(mask)
        for perm in permutations(range(k)):
            term = coeff * _parity(perm)
            for slot, which in enumerate(perm):
                term = term * vectors[which][idx[slot] - 1]
                if term.is_zero():
                    break
            total = total + term
    return total


def wedge_eval(forms, vectors) -> Polynomial:
    """(f_1 ^ ... ^ f_m)(v_1, ..., v_n) via the shuffle-free definition:
    1/(k_1! ... k_m!) sum over all permutations of sign * product."""
    degrees = [f.degree for f in forms]
    n = sum(degrees)
    assert len(vectors) == n
    norm = Fraction(1)
    for d in degrees:
        for t in range(2, d + 1):
            norm /= t
    total = Polynomial.zero()
    for perm in permutations(range(n)):
        sign = _parity(perm)
        term = Polynomial.const(sign)
        pos = 0
        for f, d in zip(forms, degrees):
            chunk = [vectors[perm[pos + t]] for t in range(d)]
            term = term * eval_form(f, chunk)
            if term.is_zero():
                break
            pos += d
        total = total + term
    return total * norm


def basis_vectors(dim):
    """e_1..e_dim as tuples of Polynomial coordinates."""
    return [
        tuple(Polynomial.const(1 if j == i else 0) for j in range(1, dim + 1))
        for i in range(1, dim + 1)
    ]


def eval_on_basis(form: KForm, indices) -> Fraction:
    """f(e_{i1}, ..., e_{ik}) for a numeric form, by sorting the indices."""
    if len(set(indices)) != len(indices):
        return Fraction(0)
    order = sorted(range(len(indices)), key=lambda t: indices[t])
    sign = _parity(tuple(order))
    key = 0
    for i in indices:
        key |= 1 << (i - 1)
    coeff = form.coeffs.get(key)
    if coeff is None:
        return Fraction(0)
    return sign * coeff.constant_value()


def oracle_b_entry(phi: KForm, i: int, j: int) -> Fraction:
    """(1/6) (iota_{e_i}phi ^ iota_{e_j}phi ^ phi)(e_1..e_7) by direct
    permutation expansion; independent of the bitmask wedge."""
    total = Fraction(0)
    for perm in permutations(range(1, 8)):
        first = eval_on_basis(phi, (i, perm[0], perm[1]))
        if not first:
            continue
        second = eval_on_basis(phi, (j, perm[2], perm[3]))
        if not second:
            continue
        third = eval_on_basis(phi, (perm[4], perm[5], perm[6]))
        if not third:
            continue
        total += _parity(tuple(p - 1 for p in perm)) * first * second * third
    # normalize the 2!*2!*3! slot permutations and the outer 1/6
    return total / (2 * 2 * 6) / 6


def oracle_k_entry(psi: KForm, i: int, j: int) -> Fraction:
    """top(e^j ^ iota_{e_i}psi ^ psi) by permutation expansion on dim 6."""
    total = Fraction(0)
    for perm in permutations(range(1, 7)):
        if perm[0] != j:
            continue
        first = eval_on_basis(psi, (i, perm[1], perm[2]))
        if not first:
            continue
        second = eval_on_basis(psi, (perm[3], perm[4], perm[5]))
        if not second:
            continue
        total += _parity(tuple(p - 1 for p in perm)) * first * second
    return total / (2 * 6)


def oracle_omega_cubed(omega: dict) -> int:
    """The coefficient of e^123456 in omega^3 for an int 2-form given as
    mask -> coefficient, by two full exterior products."""
    return wedge_coeffs(wedge_coeffs(omega, omega), omega).get((1 << 6) - 1, 0)


def rref(rows, ncols: int) -> tuple:
    """Reduced row echelon form in place by Gauss-Jordan elimination with
    field division; returns (rows, pivot_columns).  The reference for the
    fraction-free linalg.rref, and the elimination over Q(params) for rows
    of RationalFunctions: it needs only +, -, * and / of its entries and a
    nonzero test.  Pivoting is positional (first nonzero)."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return rows, pivots


def rank_in_span(rows, vector) -> bool:
    """Membership by rank: the pivots of rref(rows) against the pivots of
    rref(rows + [vector]), each eliminated in full."""
    ncols = len(vector)
    before = rref([list(r) for r in rows], ncols)[1]
    after = rref([list(r) for r in rows] + [list(vector)], ncols)[1]
    return len(before) == len(after)


# -- the SU(3) verdict by contraction ----------------------------------------


class Definiteness(enum.Enum):
    POS_DEF = "PosDef"
    NEG_DEF = "NegDef"
    INDEFINITE = "Indefinite"
    DEGENERATE = "Degenerate"


class SU3Verdict(enum.Enum):
    PASSES = "Passes"
    FAILS_NONDEGENERACY = "FailsNondegeneracy"
    FAILS_STABILITY = "FailsStability"
    FAILS_PRIMITIVITY = "FailsPrimitivity"
    FAILS_POSITIVITY = "FailsPositivity"


def matrix_of(rows) -> Bilinear:
    """A Bilinear holding a given matrix (a list of rows)."""
    return Bilinear(len(rows), lambda i, j: rows[i - 1][j - 1])


def rows_of(b: Bilinear) -> list:
    """Every entry of a bilinear form, read through entry()."""
    return [[b.entry(i, j) for j in range(1, b.dim + 1)] for i in range(1, b.dim + 1)]


def is_symmetric(b: Bilinear) -> bool:
    return all(
        b.entry(i, j) == b.entry(j, i) for i in range(1, b.dim + 1) for j in range(i + 1, b.dim + 1)
    )


def numeric_entries(b: Bilinear) -> list:
    """The Fraction matrix of a bilinear form with constant entries."""
    rows = rows_of(b)
    if not all(c.is_constant() for row in rows for c in row):
        raise NonNumericEntries("bilinear form has symbolic entries")
    return [[c.constant_value() for c in row] for row in rows]


def is_definite(b: Bilinear) -> Definiteness:
    """Exact leading-principal-minor test of a numeric symmetric form:
    positive definite iff all minors are positive, negative definite iff
    their signs alternate starting negative, degenerate iff det = 0."""
    matrix = numeric_entries(b)
    minors = [det_fraction([row[: k + 1] for row in matrix[: k + 1]]) for k in range(b.dim)]
    if minors[-1] == 0:
        return Definiteness.DEGENERATE
    if all(m > 0 for m in minors):
        return Definiteness.POS_DEF
    if all((m < 0) if (k % 2 == 0) else (m > 0) for k, m in enumerate(minors)):
        return Definiteness.NEG_DEF
    return Definiteness.INDEFINITE


def contraction_k(psi: KForm) -> list:
    """K[j-1][i-1] = top(e^j ^ iota_{e_i}psi ^ psi) by contraction and wedge."""
    entries = [[Polynomial.zero()] * 6 for _ in range(6)]
    for i, iota in enumerate(contractions(psi), start=1):
        xi = wedge(iota, psi)
        for j in range(1, 7):
            entries[j - 1][i - 1] = top_coefficient(wedge(basis_form(6, (j,)), xi))
    return entries


def contraction_h(omega: KForm, k: list) -> Bilinear:
    """h(e_i, e_j) = sum over l of omega(e_i, e_l) K[l][j], via form_value."""
    entries = [[Polynomial.zero()] * 6 for _ in range(6)]
    for i in range(1, 7):
        for j in range(1, 7):
            acc = Polynomial.zero()
            for l in range(1, 7):
                acc = acc + form_value(omega, i, l) * k[l - 1][j - 1]
            entries[i - 1][j - 1] = acc
    return matrix_of(entries)


def su3_check(omega: KForm, psi: KForm) -> SU3Verdict:
    """The SU(3) verdict of a numeric pair (omega, psi).

    Conditions, in order: omega^3 != 0; lambda(psi) = 1/6 tr(K^2) < 0;
    omega ^ psi = 0; h = omega(., K.) symmetric and definite of either sign.
    """
    if top_coefficient(wedge(wedge(omega, omega), omega)).is_zero():
        return SU3Verdict.FAILS_NONDEGENERACY
    k = contraction_k(psi)
    trace_sq = sum(
        (k[i][l] * k[l][i] for i in range(6) for l in range(6)), Polynomial.zero()
    )
    if trace_sq.constant_value() >= 0:
        return SU3Verdict.FAILS_STABILITY
    if not wedge(omega, psi).is_zero():
        return SU3Verdict.FAILS_PRIMITIVITY
    h = contraction_h(omega, k)
    if not is_symmetric(h):
        return SU3Verdict.FAILS_POSITIVITY
    if is_definite(h) in (Definiteness.POS_DEF, Definiteness.NEG_DEF):
        return SU3Verdict.PASSES
    return SU3Verdict.FAILS_POSITIVITY


def entry_to_json(entry: AlgebraEntry) -> dict:
    """The catalog node of an entry, the inverse of AlgebraEntry.from_json;
    fields at their default value are left out."""
    node = {"name": entry.name, "dim": entry.dim}
    if entry.stub:
        node["stub"] = True
    if entry.structure:
        node["structure"] = entry.structure
    if entry.family_params:
        node["family_params"] = [
            {"name": p.name, "atoms": p.atoms}
            for p in entry.family_params
        ]
    if entry.nilradical is not None:
        node["nilradical"] = entry.nilradical
    if not entry.expect_unimodular:
        node["expect_unimodular"] = False
    if entry.derivation_family is not None:
        node["derivation_family"] = entry.derivation_family
    if entry.su_expected is not None:
        node["su_expected"] = entry.su_expected
    if entry.witnesses:
        node["witnesses"] = entry.witnesses
    if entry.plan:
        node["plan"] = entry.plan
    if entry.notes:
        node["notes"] = entry.notes
    return node


def save_catalog(entries, path, name: str = "") -> None:
    """Write `entries` as a catalog document in canonical form (sorted
    keys, two-space indent, final newline), so equal catalogs are equal
    bytes."""
    document = {"schema": SCHEMA, "entries": [entry_to_json(e) for e in entries]}
    if name:
        document["name"] = name
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def substitute_rational(poly: Polynomial, mapping) -> RationalFunction:
    """poly with some variables replaced by rational functions, term by
    term in RationalFunction arithmetic."""
    out = RationalFunction.zero()
    for mono, coeff in poly.terms.items():
        term = RationalFunction.from_scalar(coeff)
        for var, exp in mono:
            if var in mapping:
                term = term * mapping[var] ** exp
            else:
                term = term * RationalFunction.from_polynomial(Polynomial.var(var, exp))
        out = out + term
    return out


def oracle_substitute_cramer(poly: Polynomial, svars, numerators, den: Polynomial):
    """(N, d) with poly(s = numerators / den) = N / den^d, d the total degree
    of poly in svars: each s-monomial group's coefficient times its
    numerator powers and den^(d - its degree), multiplied by the schoolbook
    oracle_mul in Fraction arithmetic and summed."""
    groups = poly.collect(set(svars))
    degree = max((sum(e for _, e in mono) for mono in groups), default=0)
    if degree == 0:
        return poly, 0
    image = dict(zip(svars, numerators))
    total = Polynomial.zero()
    for mono, coeff in groups.items():
        factors = [image[v] for v, e in mono for _ in range(e)]
        factors += [den] * (degree - sum(e for _, e in mono))
        for factor in factors:
            coeff = oracle_mul(coeff, factor)
        total = total + coeff
    return total, degree


def basis_bracket(algebra: LieAlgebra, i: int, j: int) -> tuple:
    """[e_i, e_j]: its e_k-coordinate is the structure constant
    e^k([e_i, e_j]) = -de^k(e_i, e_j)."""
    return tuple(-form_value(dk, i, j) for dk in algebra.differentials)


def oracle_bracket(algebra: LieAlgebra, x, y) -> tuple:
    """[x, y] = sum over i, j of x_i y_j [e_i, e_j], by the bilinear loop."""
    out = [Polynomial.zero()] * algebra.dim
    for i, xi in enumerate(x, start=1):
        for j, yj in enumerate(y, start=1):
            scale = xi * yj
            if scale:
                out = [acc + scale * c for acc, c in zip(out, basis_bracket(algebra, i, j))]
    return tuple(out)


def oracle_adjoint(algebra: LieAlgebra) -> list:
    """The matrices of ad_{e_1}..ad_{e_n}, column j the bracket [e_i, e_j]."""
    basis = basis_vectors(algebra.dim)
    return [
        [list(row) for row in zip(*(oracle_bracket(algebra, x, y) for y in basis))]
        for x in basis
    ]


def rational_subspace(algebra: LieAlgebra, vectors) -> Subspace:
    """The Subspace spanned by vectors of constant Polynomials, each
    coordinate read by constant_value (a Subspace holds rationals only)."""
    return Subspace(algebra, [[c.constant_value() for c in v] for v in vectors])


def spans(outer: Subspace, vectors) -> bool:
    """Every vector lies in outer, each tested by rank over Q(params)."""
    rows = [rf_row(g) for g in outer.rows]
    return all(rank_in_span(rows, rf_row(v)) for v in vectors)


def subspace_contains(outer: Subspace, inner: Subspace) -> bool:
    """Every row of inner lies in outer."""
    return spans(outer, inner.rows)


def subspace_equals(a: Subspace, b: Subspace) -> bool:
    return a.dim == b.dim and subspace_contains(a, b)


def basis_brackets(algebra: LieAlgebra) -> list:
    """The nonzero [e_i, e_j], i < j, which span [g, g]; their coordinates
    may hold family parameters."""
    gens = [
        basis_bracket(algebra, i, j)
        for i in range(1, algebra.dim + 1)
        for j in range(i + 1, algebra.dim + 1)
    ]
    return [g for g in gens if any(g)]


def derived_algebra(algebra: LieAlgebra) -> Subspace:
    """[g, g] as a Subspace, for an algebra whose brackets are numeric."""
    return rational_subspace(algebra, basis_brackets(algebra))


def is_ideal(algebra: LieAlgebra, subspace: Subspace) -> bool:
    """[e_i, g] lies in the subspace for every basis vector e_i and every
    row g, each bracket by the bilinear loop and tested by rank."""
    rows = [rf_row(g) for g in subspace.rows]
    return all(
        rank_in_span(rows, rf_row(oracle_bracket(algebra, b, g)))
        for g in subspace.rows
        for b in basis_vectors(algebra.dim)
    )


def oracle_series(algebra: LieAlgebra, indices) -> list:
    """The descending central series of span(e_i : i in indices): each next
    term is spanned by the brackets, by the bilinear loop and over every
    structure constant, of every e_i with every row of the last term.  It
    stops at the first zero term or at the first whose dimension does not
    fall."""
    basis = basis_vectors(algebra.dim)
    n = [basis[i - 1] for i in indices]
    series = [rational_subspace(algebra, n)]
    while True:
        gens = [oracle_bracket(algebra, x, y) for x in n for y in series[-1].rows]
        series.append(rational_subspace(algebra, gens))
        if series[-1].is_zero() or series[-1].dim >= series[-2].dim:
            return series


def nilradical_rejection(algebra: LieAlgebra, indices):
    """The reason verify_nilradical gives for span(e_i : i in indices), by
    the subspace checks in the order it makes them: "dependent", "not an
    ideal", "not nilpotent" or "derived algebra"; None when it accepts."""
    n = Subspace.from_indices(algebra, indices)
    if n.dim != len(indices):
        return "dependent"
    if not is_ideal(algebra, n):
        return "not an ideal"
    if not oracle_series(algebra, indices)[-1].is_zero():
        return "not nilpotent"
    if not spans(n, basis_brackets(algebra)):
        return "derived algebra"
    return None


def oracle_unimodular(algebra: LieAlgebra) -> bool:
    """tr(ad_{e_i}) = 0 for every i, summing the e_j-coordinates of the
    basis brackets [e_i, e_j]."""
    return all(
        sum(
            (basis_bracket(algebra, i, j)[j - 1] for j in range(1, algebra.dim + 1)),
            Polynomial.zero(),
        ).is_zero()
        for i in range(1, algebra.dim + 1)
    )


def apply_matrix(matrix, v) -> tuple:
    """M v for a matrix of Polynomials (a list of rows) and a tuple v."""
    return tuple(
        sum((entry * c for entry, c in zip(row, v)), Polynomial.zero()) for row in matrix
    )


def oracle_leibniz(algebra: LieAlgebra, matrix):
    """The first (i, j, k), i < j, in lexicographic order, at which the
    e_k-component of D[e_i, e_j] - [De_i, e_j] - [e_i, De_j] is nonzero,
    with that component; None when D is a derivation.  Brackets come from
    the bilinear loop, D from the matrix."""
    n = algebra.dim
    basis = basis_vectors(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = apply_matrix(matrix, basis_bracket(algebra, i, j))
            first = oracle_bracket(algebra, apply_matrix(matrix, basis[i - 1]), basis[j - 1])
            second = oracle_bracket(algebra, basis[i - 1], apply_matrix(matrix, basis[j - 1]))
            for k in range(n):
                residual = lhs[k] - first[k] - second[k]
                if not residual.is_zero():
                    return (i, j, k + 1), residual
    return None


def as_polynomial(f: RationalFunction) -> Polynomial:
    """The polynomial f equals; raises ValueError when f is not one."""
    if f.den.is_constant():
        return f.num * (1 / f.den.constant_value())
    quotient = f.num.divide_exact(f.den)
    if quotient is None:
        raise ValueError(f"not a polynomial: {f}")
    return quotient


def oracle_expand_witness(node) -> Polynomial:
    """The polynomial of a witness tree (catalog.expand_witness), with each
    square and product formed by the schoolbook oracle_mul."""
    kind, *args = node
    if kind == "square":
        (text,) = args
        return oracle_mul(parse_polynomial(text), parse_polynomial(text))
    if kind == "const":
        (text,) = args
        return Polynomial.const(Fraction(text))
    parts = [oracle_expand_witness(child) for child in args]
    if kind == "sum":
        return sum(parts, Polynomial.zero())
    total = Polynomial.const(1)
    for part in parts:
        total = oracle_mul(total, part)
    return total


def extension_algebra(base: LieAlgebra, derivation) -> LieAlgebra:
    """s x_D R with the extra generator e_{n+1}: d e^k gains the terms
    D[k][j] e^j ^ e^{n+1} and d e^{n+1} = 0.  Validated, so it raises
    JacobiFailure unless d^2 = 0."""
    n = base.dim
    differentials = []
    for k in range(1, n + 1):
        lifted = dict(base.d_basis(k).coeffs)
        for j in range(1, n + 1):
            entry = derivation.matrix[k - 1][j - 1]
            if not entry.is_zero():
                mask = (1 << (j - 1)) | (1 << n)
                lifted[mask] = lifted.get(mask, Polynomial.zero()) + entry
        differentials.append(KForm(n + 1, 2, lifted))
    differentials.append(KForm(n + 1, 2))
    extension = LieAlgebra(n + 1, differentials)
    validate(extension)
    return extension


def solve_unique(matrix, rhs):
    """Solution of a consistent square-ish system; None if rank-deficient
    in the unknowns or inconsistent."""
    n_cols = len(matrix[0]) if matrix else 0
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(rows, n_cols)
    for row in rows:
        if not any(row[:n_cols]) and row[n_cols]:
            return None
    if len(pivots) < n_cols:
        return None
    solution = [None] * n_cols
    for r, c in enumerate(pivots):
        solution[c] = rows[r][n_cols]
    return solution


def quotient_trace(algebra: LieAlgebra, operator, inner: Subspace, outer: Subspace) -> RationalFunction:
    """Trace of the map induced on outer / inner by operator (a function on
    coordinate tuples), by per-generator elimination: extend a reduced basis of
    inner by the rows of outer that raise the rank (one rref each), then
    solve for the coordinates of each added row's image in that basis (one
    more elimination each) and sum the diagonal ones.  Raises
    NilradicalNotInvariant when an image has no coordinates, i.e. leaves
    outer."""
    combined, _ = rref([rf_row(g) for g in inner.rows], algebra.dim)
    inner_dim = len(combined)
    added = []
    for gen in outer.rows:
        row = rf_row(gen)
        _, pivots = rref([list(r) for r in combined] + [list(row)], algebra.dim)
        if len(pivots) > len(combined):
            combined.append(row)
            added.append(gen)
    trace = RationalFunction.zero()
    cols = [[r[c] for r in combined] for c in range(algebra.dim)]
    for idx, gen in enumerate(added):
        solution = solve_unique(cols, rf_row(operator(gen)))
        if solution is None:
            raise NilradicalNotInvariant("operator does not preserve a central-series term")
        trace = trace + solution[inner_dim + idx]
    return trace


def rf_row(v) -> list:
    """The coordinates of v (Polynomials or rationals) as RationalFunctions,
    a row for rref."""
    return [
        RationalFunction.from_polynomial(c) if isinstance(c, Polynomial)
        else RationalFunction.from_scalar(c)
        for c in v
    ]


# -- literal forms, the SU(3) pair references and the sampler's draw ---------


def basis_form(dim: int, indices) -> KForm:
    """The basis form e^{i1...ik} for strictly increasing indices."""
    idx = tuple(indices)
    if any(i < 1 or i > dim for i in idx) or list(idx) != sorted(set(idx)):
        raise ValueError(f"indices {idx} must be strictly increasing in 1..{dim}")
    return KForm(dim, len(idx), {mask_of(idx): 1})


def form_from_terms(dim: int, degree: int, terms) -> KForm:
    """The form sum c e^{indices} over the (indices, c) items of terms."""
    return KForm(dim, degree, {mask_of(idx): c for idx, c in terms.items()})


def standard_su3_pair():
    """The reference pair omega = e12 + e34 + e56, psi = Re((e1+ie2)^(e3+ie4)^(e5+ie6))."""
    omega = form_from_terms(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})
    psi = (
        basis_form(6, (1, 3, 5))
        - basis_form(6, (1, 4, 6))
        - basis_form(6, (2, 3, 6))
        - basis_form(6, (2, 4, 5))
    )
    return omega, psi


def negative_control(trials: int = 50, seed: int = 1) -> int:
    """Feed the falsifier's SU(3) predicate pairs pulled back from the
    standard SU(3) pair; it must find passes, proving it is not vacuously
    rejecting."""
    rng = random.Random(seed)
    omega0, psi0 = standard_su3_pair()
    passes = 0
    for _ in range(trials):
        diag = [Fraction(rng.choice([x for x in range(-5, 6) if x != 0])) for _ in range(6)]
        matrix = [[Polynomial.const(diag[i] if i == j else 0) for j in range(6)] for i in range(6)]
        omega = eval_form_int(pullback(matrix, omega0), {})
        psi = eval_form_int(pullback(matrix, psi0), {})
        if su3_passes_int(omega, psi):
            passes += 1
    return passes


def flat_kernel(coeffs, variables, numerators, common) -> list:
    """What CompiledForm(coeffs, variables).kernel(numerators, common)
    returns, term by term: each row's value at numerators / common times
    q * common^d, for q the lcm of the coefficients' denominators and d the
    top degree of the rows."""
    position = {name: i for i, name in enumerate(variables)}
    terms = [(mono, Fraction(c)) for poly in coeffs.values() for mono, c in poly.terms.items()]
    scale = lcm(1, *(coeff.denominator for _, coeff in terms))
    degree = max((sum(exp for _, exp in mono) for mono, _ in terms), default=0)
    values = []
    for poly in coeffs.values():
        total = Fraction(0)
        for mono, coeff in poly.terms.items():
            value = Fraction(coeff) * scale * common ** (degree - sum(exp for _, exp in mono))
            for name, exp in mono:
                value *= numerators[position[name]] ** exp
            total += value
        assert total.denominator == 1
        values.append(int(total))
    return values


class _FlatForm:
    """The sampler's compiled form before its rows were in Horner form: one
    flat generated kernel, and evaluate() dividing out the gcd."""

    def __init__(self, coeffs, variables):
        position = {name: i for i, name in enumerate(variables)}
        scale = 1
        degree = 0
        for poly in coeffs.values():
            for mono, coeff in poly.terms.items():
                scale = lcm(scale, coeff.denominator)
                degree = max(degree, sum(exp for _, exp in mono))
        self.scale = scale
        self.degree = degree
        self.keys = list(coeffs)
        read = set()
        rows = []
        for poly in coeffs.values():
            row = ""
            for mono, coeff in poly.terms.items():
                factors = [position[name] for name, exp in mono for _ in range(exp)]
                read.update(factors)
                product = [f"x{i}" for i in factors]
                gap = degree - len(factors)
                if gap:
                    product.append(f"p{gap}")
                value = int(coeff * scale)
                if abs(value) != 1 or not product:
                    product.insert(0, str(abs(value)))
                row += (" - " if value < 0 else " + ") + "*".join(product)
            rows.append(row[3:] if row.startswith(" + ") else row or "0")
        lines = [f"x{i} = n[{i}]" for i in sorted(read)] + ["p1 = L"]
        lines += [f"p{gap} = p{gap - 1} * L" for gap in range(2, degree + 1)]
        lines.append(f"return [{', '.join(rows)}]")
        source = "def kernel(n, L):\n" + "".join(f"    {line}\n" for line in lines)
        namespace = {}
        exec(compile(source, "<_FlatForm>", "exec"), namespace)
        self.kernel = namespace["kernel"]

    def evaluate(self, point) -> dict:
        numerators, common = point
        values = self.kernel(numerators, common)
        divisor = gcd(self.scale * common**self.degree, *values)
        return {key: value // divisor for key, value in zip(self.keys, values) if value}


def _uniform_int(getrandbits, low: int, high: int) -> int:
    width = high - low + 1
    bits = width.bit_length()
    value = getrandbits(bits)
    while value >= width:
        value = getrandbits(bits)
    return low + value


def _write_rational(values: list, common: int, i: int, num: int, den: int) -> int:
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    num, den = num // g, den // g
    grow = den // gcd(common, den)
    if grow != 1:
        values[:] = [value * grow for value in values]
        common *= grow
    values[i] = num * (common // den)
    return common


def reference_draw(context, rng):
    """A function doing one draw attempt of PairSampler(context, rng) per
    call, as the sampler did it before its draw was generated whole: each
    number by uniform_int, the forms by flat kernels, and omega and psi
    with denominators cleared.  It returns the trial (omega, psi) or None,
    and reads the same getrandbits stream."""
    atoms = list(context.atoms)
    t2_slice = context.step("prose_sample").get("slice") == "t2_zero"
    psi, omega = context.psi, context.omega
    names = psi.variables() | omega.variables()
    fam_vars = sorted(v for v in names if v.startswith("fam_"))
    free_vars = sorted(v for v in names if not v.startswith("fam_"))
    variables = free_vars + fam_vars
    atoms_int = _FlatForm({i: atom.poly for i, atom in enumerate(atoms)}, fam_vars)
    lam_int = _FlatForm({0: context.lam}, variables)
    psi_int = _FlatForm(psi.coeffs, variables)
    omega_int = _FlatForm(omega.coeffs, variables)
    getrandbits = rng.getrandbits
    if t2_slice:
        *_, det, _ = context.gauge
        parts = {
            sum(e for _, e in mono): coeff for mono, coeff in det.collect({"alpha_14"}).items()
        }
        det_int = _FlatForm(parts, variables)
        slice_at = [variables.index(name) for name in (
            "fam_a", "fam_b", "alpha_12", "alpha_13", "alpha_23", "alpha_24", "alpha_34",
            "alpha_14",
        )]

    def draw_family():
        for _ in range(2000):
            drawn = [
                (_uniform_int(getrandbits, -1000, 1000), _uniform_int(getrandbits, 1, 12))
                for _ in fam_vars
            ]
            common = lcm(*(den for _, den in drawn))
            values = [num * (common // den) for num, den in drawn]
            atom_values = atoms_int.kernel(values, common)
            if all(atom.admits(value) for atom, value in zip(atoms, atom_values)):
                return values, common
        raise AtomUnsatisfiableAfterBudget(f"no sample satisfied {[str(a) for a in atoms]}")

    def apply_t2_slice(values, common):
        a, b, a12, a13, a23, a24, at34, at14 = slice_at
        na, nb, n12, n13, n24 = (values[i] for i in (a, b, a12, a13, a24))
        if na == nb or n12 == 0 or n13 == 0 or n24 == 0 or values[a23] == 0:
            return None
        k = _uniform_int(getrandbits, 1, 5)
        p_num = na * (nb + common) * n13 * n24
        if p_num == 0:
            return None
        common = _write_rational(
            values, common, at34, k * k * p_num, common * common * (na - nb) * n12
        )
        coeffs = det_int.evaluate((values, common))
        A, B, C = (coeffs.get(exp, 0) for exp in (2, 1, 0))
        if A == 0:
            return None
        disc = B * B - 4 * A * C
        if disc < 0:
            return None
        root = isqrt(disc)
        if root * root != disc:
            return None
        return _write_rational(values, common, at14, root - B, 2 * A)

    def draw():
        family, common = draw_family() if fam_vars or atoms else ([], 1)
        values = [common * _uniform_int(getrandbits, -20, 20) for _ in free_vars] + family
        if t2_slice:
            common = apply_t2_slice(values, common)
            if common is None:
                return None
        point = (values, common)
        lam = lam_int.kernel(values, common)[0]
        omega = candidate_conditions_int(lam, lambda: omega_int.evaluate(point))
        if omega is None:
            return None
        return omega, psi_int.evaluate(point)

    return draw
