"""Lie algebras from structure equations.  The dual (Chevalley-Eilenberg)
differential d is the only datum: the brackets are read off it.

The sign convention is fixed once for the whole package:

    de^k(x, y) = -e^k([x, y])

so de^1 = -e13 pairs with [e1, e3] = e1.  The structural checks are read
off d, identically in any family parameters: Jacobi is d o d = 0 on every
e^k (validate), unimodularity is d = 0 on the (n-1)-forms
(unimodular_check), and a nilradical's ideal and derived-algebra
conditions are conditions on the terms of the de^k (verify_nilradical).
The descending central series of a nilradical (its nilpotency) reads the
brackets inside the nilradical once, as rationals, from the terms of d:
its terms are subspaces over Q, so a bracket coordinate that involves a
family parameter raises NonNumericEntries.  adjoint reads every ad_{e_i}
off the contractions of the de^k, for the strong-unimodularity traces of
the derivations module, which reads the Leibniz identity off d too.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .errors import (
    DimensionMismatch,
    JacobiFailure,
    NilradicalNotInvariant,
    NonNumericEntries,
    NotAnIdeal,
)
from .forms import KForm, antiderivation, contractions, mask_of
from .poly import ONE_MONOMIAL, P_ONE, P_ZERO, Polynomial


class LieAlgebra:
    """Structure constants stored as the 2-forms de^1..de^n."""

    __slots__ = ("dim", "differentials")

    def __init__(self, dim: int, differentials: Sequence[KForm]):
        if len(differentials) != dim:
            raise DimensionMismatch(f"expected {dim} differentials, got {len(differentials)}")
        for d in differentials:
            if d.dim != dim or d.degree != 2:
                raise DimensionMismatch("each differential must be a 2-form on the algebra")
        self.dim = dim
        self.differentials = tuple(differentials)

    def substitute(self, mapping) -> "LieAlgebra":
        """The algebra with values substituted for its family parameters."""
        return LieAlgebra(self.dim, [d.substitute(mapping) for d in self.differentials])

    def d_basis(self, k: int) -> KForm:
        """de^k for a 1-based index k."""
        return self.differentials[k - 1]

    def family_parameters(self) -> frozenset:
        out = frozenset()
        for d in self.differentials:
            out |= d.variables()
        return out


def ce_differential(algebra: LieAlgebra, f: KForm) -> KForm:
    """Chevalley-Eilenberg differential, the antiderivation extending de^k.

    d(e^{i1..ik}) = sum_m (-1)^(m-1) de^{i_m} ^ e^{i1..^i_m..ik}.
    """
    if f.dim != algebra.dim:
        raise DimensionMismatch(f"form on dim {f.dim}, algebra dim {algebra.dim}")
    images = [d.coeffs for d in algebra.differentials]
    return KForm(algebra.dim, f.degree + 1, antiderivation(images, f.coeffs))


def adjoint(algebra: LieAlgebra) -> list:
    """The matrices ad_{e_1}..ad_{e_n}, column j the image of e_j (the
    convention of DerivationFamily.matrix), read in one pass over the
    contractions of the de^k: (iota_{e_i} de^k)(e_j) = -e^k([e_i, e_j]), so
    entry [k][j] of ad_{e_i} is minus the e^j coefficient of iota_{e_i} de^k."""
    n = algebra.dim
    ad = [[[P_ZERO] * n for _ in range(n)] for _ in range(n)]
    for k, dk in enumerate(algebra.differentials):
        for ad_i, inner in zip(ad, contractions(dk)):
            for mask, coeff in inner.coeffs.items():
                ad_i[k][mask.bit_length() - 1] = -coeff
    return ad


def validate(algebra: LieAlgebra) -> None:
    """Raise JacobiFailure with the first k whose d(de^k) is not zero (d^2
    != 0, identically in family parameters; zero for all k iff Jacobi holds)."""
    for k, dk in enumerate(algebra.differentials, start=1):
        residual = ce_differential(algebra, dk)
        if not residual.is_zero():
            raise JacobiFailure(k, residual)


def unimodular_check(algebra: LieAlgebra) -> bool:
    """tr(ad_{e_i}) = 0 for all i, as polynomial identities, read off d on
    the (n-1)-forms: d(iota_{e_i} vol) = -tr(ad_{e_i}) vol."""
    n = algebra.dim
    full = (1 << n) - 1
    return all(
        ce_differential(algebra, KForm(n, n - 1, {full ^ (1 << i): P_ONE})).is_zero()
        for i in range(n)
    )


# -- subspaces -----------------------------------------------------------


class Subspace:
    """Span over Q of rows of ints and Fractions, stored as linalg.rref's rows and pivots."""

    __slots__ = ("parent", "rows", "pivots")

    def __init__(self, parent: LieAlgebra, rows: Sequence[Sequence]):
        self.parent = parent
        self.rows, self.pivots = linalg.rref(rows, parent.dim)

    @staticmethod
    def from_indices(parent: LieAlgebra, indices: Sequence[int]) -> "Subspace":
        return Subspace(parent, [[int(j == i) for j in range(1, parent.dim + 1)] for i in indices])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return self.dim == 0

    def trace(self, operator: Sequence[Sequence[Polynomial]]) -> Polynomial:
        """Trace, a polynomial, of the restriction to this subspace of the
        linear map with matrix `operator` (column j the image of e_j,
        polynomial entries).

        Each reduced row R has 1 at its pivot and 0 at the other pivots, so
        the coordinate of M R along R is the entry of M R at R's pivot (the
        fact linalg.in_span rests on) and the trace is the sum of those.
        Raises NilradicalNotInvariant when some M R leaves the subspace.
        """
        columns = list(zip(*operator))
        trace = P_ZERO
        for row, pivot in zip(self.rows, self.pivots):
            image = [P_ZERO] * self.parent.dim
            for entry, column in zip(row, columns):
                if entry:
                    image = [acc + c * entry if c else acc for acc, c in zip(image, column)]
            if not linalg.in_span(self.rows, self.pivots, image):
                raise NilradicalNotInvariant("the map does not preserve a central-series term")
            trace = trace + image[pivot]
        return trace

    def __repr__(self):
        return f"Subspace(dim={self.dim})"


def descending_central_series(algebra: LieAlgebra, indices: Sequence[int]) -> list:
    """n^0 = n = span(e_i : i in indices), n^(k+1) = [n, n^k], spanned by
    [e_i, r] for i in indices and r a reduced row of n^k, in that order; it
    stops at the first zero term, or at the first whose dimension does not
    fall (n is then not nilpotent).  The brackets inside n are read once, as
    rationals, off the terms of d inside n: c e^{ij} (i < j) in de^k is the
    e_k-coordinate -c of [e_i, e_j]; one that involves a family parameter
    raises NonNumericEntries.  This needs n to be an ideal, so that every
    term lies in n: verify_nilradical proves it before it builds the series."""
    n = algebra.dim
    bracket = [[[0] * n for _ in range(n)] for _ in range(n)]  # [e_i, e_j], 0-based
    inside = mask_of(indices)
    for k, dk in enumerate(algebra.differentials):
        for mask, coeff in dk.coeffs.items():
            if mask & inside == mask:
                if not coeff.is_constant():
                    raise NonNumericEntries(f"nilradical bracket coordinate {-coeff} depends on a family parameter")
                i, j = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
                bracket[j][i][k] = coeff.terms.get(ONE_MONOMIAL, 0)
                bracket[i][j][k] = -bracket[j][i][k]
    current = Subspace.from_indices(algebra, indices)
    series = [current]
    while True:
        images = []
        for i in indices:
            for row in current.rows:
                image = [0] * n
                for x, column in zip(row, bracket[i - 1]):
                    if x:
                        image = [a + x * b for a, b in zip(image, column)]
                images.append(image)
        nxt = Subspace(algebra, images)
        series.append(nxt)
        if nxt.is_zero() or nxt.dim >= current.dim:
            # zero: n is nilpotent; stabilized at a nonzero term: it is not
            return series
        current = nxt


def verify_nilradical(algebra: LieAlgebra, indices: Sequence[int]) -> None:
    """Accept a declared nilradical n = span(e_i : i in indices): a
    nilpotent ideal of the declared dimension containing the derived
    algebra.  Maximality is a classification fact and is not re-proved here.

    The ideal and derived-algebra conditions are read off d.  With J the
    indices outside n, de^k(x, y) = -e^k([x, y]) for k in J, so n is an
    ideal iff no term of such a de^k has an index in n, and [g, g] lies in
    n iff every such de^k is zero.  The ideal property is proved here, once
    per algebra, before the series is built; descending_central_series and
    the strong-unimodularity traces rely on it."""
    outside = [i for i in indices if not 1 <= i <= algebra.dim]
    if outside:
        raise NotAnIdeal(f"declared nilradical indices {outside} lie outside 1..{algebra.dim}")
    if len(set(indices)) != len(indices):
        raise NotAnIdeal("declared nilradical generators are dependent")
    inside = mask_of(indices)
    quotient = [d for k, d in enumerate(algebra.differentials) if not inside >> k & 1]
    if any(mask & inside for d in quotient for mask in d.coeffs):
        raise NotAnIdeal("declared nilradical is not an ideal")
    if not descending_central_series(algebra, indices)[-1].is_zero():
        raise NotAnIdeal("declared nilradical is not nilpotent")
    if not all(d.is_zero() for d in quotient):
        raise NotAnIdeal("declared nilradical does not contain the derived algebra")
