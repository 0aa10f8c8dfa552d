"""Lie algebras from structure equations, with the dual (Chevalley-Eilenberg)
differential as the primary datum.

The sign convention is fixed once for the whole package:

    de^k(x, y) = -e^k([x, y])

so de^1 = -e13 pairs with [e1, e3] = e1.  The structural checks are read
off d, identically in any family parameters: Jacobi is d o d = 0 on every
e^k (validate), unimodularity is d = 0 on the (n-1)-forms
(unimodular_check), and a nilradical's ideal and derived-algebra
conditions are conditions on the terms of the de^k (verify_nilradical).
Only its nilpotency builds the descending central series, as Subspaces over
the rational-function field.  The derivations module reads the Leibniz
identity off d too.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .errors import DimensionMismatch, JacobiFailure, NilradicalNotInvariant, NotAnIdeal
from .forms import KForm, VectorExpr, antiderivation, mask_of
from .poly import Polynomial, RationalFunction


class LieAlgebra:
    """Structure constants stored as the 2-forms de^1..de^n."""

    __slots__ = ("dim", "differentials", "name", "_bracket_cache")

    def __init__(self, dim: int, differentials: Sequence[KForm], name: str = ""):
        if len(differentials) != dim:
            raise DimensionMismatch(f"expected {dim} differentials, got {len(differentials)}")
        for d in differentials:
            if d.dim != dim or d.degree != 2:
                raise DimensionMismatch("each differential must be a 2-form on the algebra")
        self.dim = dim
        self.differentials = tuple(differentials)
        self.name = name
        self._bracket_cache = {}

    def __repr__(self):
        return f"LieAlgebra({self.name or self.dim})"

    def substitute(self, mapping) -> "LieAlgebra":
        """The algebra with values substituted for its family parameters."""
        return LieAlgebra(
            self.dim, [d.substitute(mapping) for d in self.differentials], name=self.name
        )

    # -- differential and bracket ------------------------------------------

    def d_basis(self, k: int) -> KForm:
        """de^k for a 1-based index k."""
        return self.differentials[k - 1]

    def family_parameters(self) -> frozenset:
        out = frozenset()
        for d in self.differentials:
            out |= d.variables()
        return out

    def bracket_basis(self, i: int, j: int) -> VectorExpr:
        """[e_i, e_j] with polynomial coordinates."""
        if i == j:
            return VectorExpr(self.dim, [Polynomial.zero()] * self.dim)
        key = (i, j)
        cached = self._bracket_cache.get(key)
        if cached is not None:
            return cached
        coords = []
        for k in range(1, self.dim + 1):
            dk = self.d_basis(k)
            if i < j:
                value = dk.coeffs.get((1 << (i - 1)) | (1 << (j - 1)), Polynomial.zero())
            else:
                value = -dk.coeffs.get((1 << (j - 1)) | (1 << (i - 1)), Polynomial.zero())
            coords.append(-value)
        result = VectorExpr(self.dim, coords)
        self._bracket_cache[key] = result
        return result


def ce_differential(algebra: LieAlgebra, f: KForm) -> KForm:
    """Chevalley-Eilenberg differential, the antiderivation extending de^k.

    d(e^{i1..ik}) = sum_m (-1)^(m-1) de^{i_m} ^ e^{i1..^i_m..ik}.
    """
    if f.dim != algebra.dim:
        raise DimensionMismatch(f"form on dim {f.dim}, algebra dim {algebra.dim}")
    images = [d.coeffs for d in algebra.differentials]
    return KForm(algebra.dim, f.degree + 1, antiderivation(images, f.coeffs))


def bracket(algebra: LieAlgebra, x: VectorExpr, y: VectorExpr) -> VectorExpr:
    """[x, y] extended bilinearly from the basis brackets."""
    if x.dim != algebra.dim or y.dim != algebra.dim:
        raise DimensionMismatch("vector dimension differs from the algebra")
    coords = [Polynomial.zero()] * algebra.dim
    for i in range(1, algebra.dim + 1):
        xi = x.coords[i - 1]
        if xi.is_zero():
            continue
        for j in range(1, algebra.dim + 1):
            yj = y.coords[j - 1]
            if yj.is_zero() or i == j:
                continue
            b = algebra.bracket_basis(i, j)
            scale = xi * yj
            for k in range(algebra.dim):
                if not b.coords[k].is_zero():
                    coords[k] = coords[k] + scale * b.coords[k]
    return VectorExpr(algebra.dim, coords)


def jacobi_residuals(algebra: LieAlgebra) -> list:
    """d(de^k) for every k; all zero iff Jacobi holds."""
    return [ce_differential(algebra, algebra.d_basis(k)) for k in range(1, algebra.dim + 1)]


def validate(algebra: LieAlgebra) -> None:
    """Raise JacobiFailure when d^2 != 0 (identically in family parameters)."""
    for k, residual in enumerate(jacobi_residuals(algebra), start=1):
        if not residual.is_zero():
            raise JacobiFailure(k, residual)


def unimodular_check(algebra: LieAlgebra) -> bool:
    """tr(ad_{e_i}) = 0 for all i, as polynomial identities, read off d on
    the (n-1)-forms: d(iota_{e_i} vol) = -tr(ad_{e_i}) vol."""
    n = algebra.dim
    full = (1 << n) - 1
    one = Polynomial.const(1)
    return all(
        ce_differential(algebra, KForm(n, n - 1, {full ^ (1 << i): one})).is_zero()
        for i in range(n)
    )


# -- subspaces -----------------------------------------------------------


def _to_rf_rows(vectors: Sequence[VectorExpr]) -> list:
    return [[RationalFunction.from_polynomial(c) for c in v.coords] for v in vectors]


class Subspace:
    """Span of generators, reduced over the rational-function field."""

    __slots__ = ("parent", "generators", "_rref", "_pivots")

    def __init__(self, parent: LieAlgebra, generators: Sequence[VectorExpr]):
        self.parent = parent
        self.generators = tuple(generators)
        rows = _to_rf_rows(self.generators)
        self._rref, self._pivots = linalg.rref(rows, parent.dim)

    @staticmethod
    def from_indices(parent: LieAlgebra, indices: Sequence[int]) -> "Subspace":
        return Subspace(parent, [VectorExpr.basis(parent.dim, i) for i in indices])

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def is_zero(self) -> bool:
        return self.dim == 0

    def trace(self, images: Sequence[Sequence[Polynomial]]) -> RationalFunction:
        """Trace of the restriction to this subspace of the linear map M
        with M e_j = images[j - 1] (polynomial coordinates).

        Each reduced row R has 1 at its pivot and 0 at the other pivots, so
        the coordinate of M R along R is the entry of M R at R's pivot (the
        fact linalg.in_span rests on) and the trace is the sum of those.
        Raises NilradicalNotInvariant when some M R leaves the subspace.
        """
        trace = RationalFunction.zero()
        for row, pivot in zip(self._rref, self._pivots):
            image = [RationalFunction.zero()] * self.parent.dim
            for entry, column in zip(row, images):
                if entry:
                    image = [acc + entry * c if c else acc for acc, c in zip(image, column)]
            if not linalg.in_span(self._rref, self._pivots, image):
                raise NilradicalNotInvariant("the map does not preserve a central-series term")
            trace = trace + image[pivot]
        return trace

    def __repr__(self):
        return f"Subspace(dim={self.dim})"


def descending_central_series(algebra: LieAlgebra, n: Subspace) -> list:
    """n^0 = n, n^(i+1) = [n, n^i]; stops at the first zero term, or at the
    first term whose dimension does not fall (n is then not nilpotent).
    It does not prove n an ideal: verify_nilradical does, at catalog load.
    """
    series = [n]
    current = n
    while True:
        gens = []
        for x in n.generators:
            for y in current.generators:
                b = bracket(algebra, x, y)
                if not b.is_zero():
                    gens.append(b)
        nxt = Subspace(algebra, gens)
        if nxt.dim >= current.dim:
            # stabilized at a nonzero term: not nilpotent
            series.append(nxt)
            return series
        series.append(nxt)
        if nxt.is_zero():
            return series
        current = nxt


def verify_nilradical(algebra: LieAlgebra, indices: Sequence[int]) -> Subspace:
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
    n = Subspace.from_indices(algebra, indices)
    if not descending_central_series(algebra, n)[-1].is_zero():
        raise NotAnIdeal("declared nilradical is not nilpotent")
    if not all(d.is_zero() for d in quotient):
        raise NotAnIdeal("declared nilradical does not contain the derived algebra")
    return n
