"""Hitchin-type invariants of stable forms.

On a 7-dimensional algebra, a 3-form phi induces the symmetric bilinear map

    b_phi(v, w) = 1/6 iota_v phi ^ iota_w phi ^ phi   (values in Lambda^7),

and phi defines a G2-structure iff b_phi is definite (for either
orientation).  On a 6-dimensional algebra, a 3-form psi induces the operator
K_psi with K_psi(v) x vol = A(iota_v psi ^ psi) against the fixed volume
e^123456, the quartic invariant lambda(psi) = 1/6 tr(K^2), and, for a 2-form
omega, the surrogate bilinear form h = omega(., K .).  Whenever lambda < 0,
h = sqrt(-lambda) * omega(., J .) up to the orientation sign, so h has the
same definiteness class as the metric omega(., J .) while staying inside the
polynomial ring (no radicals).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    KSquareNotScalar,
    NonNumericEntries,
)
from .forms import KForm, VectorExpr, contract, form_value, top_coefficient, wedge
from .linalg import det_fraction
from .poly import Polynomial


class Bilinear:
    """n x n matrix of polynomial entries; symmetry is asserted, not assumed."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Sequence[Sequence[Polynomial]]):
        self.dim = dim
        self.entries = [list(row) for row in entries]

    def entry(self, i: int, j: int) -> Polynomial:
        """1-based access."""
        return self.entries[i - 1][j - 1]

    def is_symmetric(self) -> bool:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.entries[i][j] != self.entries[j][i]:
                    return False
        return True

    def is_numeric(self) -> bool:
        return all(c.is_constant() for row in self.entries for c in row)

    def numeric(self) -> list:
        if not self.is_numeric():
            raise NonNumericEntries("bilinear form has symbolic entries")
        return [[c.constant_value() for c in row] for row in self.entries]

    def __repr__(self):
        return f"Bilinear(dim={self.dim})"


class Definiteness(enum.Enum):
    POS_DEF = "PosDef"
    NEG_DEF = "NegDef"
    INDEFINITE = "Indefinite"
    DEGENERATE = "Degenerate"


def b_phi(phi: KForm) -> Bilinear:
    """The G2 bilinear map of a 3-form on a 7-dimensional space.

    entries[i][j] = 1/6 * top(iota_{e_i} phi ^ iota_{e_j} phi ^ phi);
    symmetric by construction since the contracted factors have even degree.
    """
    if phi.dim != 7:
        raise DimensionMismatch("b_phi needs a 3-form on dimension 7")
    if phi.degree != 3:
        raise DimensionMismatch("b_phi needs a 3-form")
    sixth = Fraction(1, 6)
    contractions = [contract(VectorExpr.basis(7, i), phi) for i in range(1, 8)]
    entries = [[None] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            value = top_coefficient(wedge(wedge(contractions[i], contractions[j]), phi)) * sixth
            entries[i][j] = value
            entries[j][i] = value
    return Bilinear(7, entries)


def is_definite(b: Bilinear) -> Definiteness:
    """Sign classification of a fully numeric symmetric bilinear form.

    Exact leading-principal-minor test: positive definite iff all minors are
    positive, negative definite iff the signs alternate starting negative,
    degenerate iff det = 0.
    """
    matrix = b.numeric()
    n = b.dim
    minors = [det_fraction([row[: k + 1] for row in matrix[: k + 1]]) for k in range(n)]
    if minors[-1] == 0:
        return Definiteness.DEGENERATE
    if all(m > 0 for m in minors):
        return Definiteness.POS_DEF
    if all((m < 0) if (k % 2 == 0) else (m > 0) for k, m in enumerate(minors)):
        return Definiteness.NEG_DEF
    return Definiteness.INDEFINITE


class KOperator:
    """K_psi with the fixed volume e^123456, plus lambda = 1/6 tr(K^2)."""

    __slots__ = ("entries", "lam")

    def __init__(self, entries, lam):
        self.entries = entries
        self.lam = lam

    def column(self, i: int) -> list:
        """Coordinates of K(e_i), 1-based."""
        return [self.entries[k][i - 1] for k in range(6)]


def k_psi(psi: KForm) -> KOperator:
    """K of a 3-form on dimension 6: entries[j][i] = top(e^j ^ iota_{e_i}psi ^ psi).

    The pairing Lambda^5 = s x Lambda^6 is taken with the 1-form in front;
    this order reproduces the almost complex structures printed in the
    source computations (the opposite order gives -K, same lambda).

    Asserts the Hitchin identity K^2 = lambda * Id entrywise, which holds for
    every 3-form; a violation signals a convention bug, not bad input.
    """
    if psi.dim != 6 or psi.degree != 3:
        raise DimensionMismatch("k_psi needs a 3-form on dimension 6")
    entries = [[Polynomial.zero()] * 6 for _ in range(6)]
    for i in range(1, 7):
        xi = wedge(contract(VectorExpr.basis(6, i), psi), psi)
        for j in range(1, 7):
            entries[j - 1][i - 1] = top_coefficient(wedge(KForm.basis(6, (j,)), xi))
    trace_sq = Polynomial.zero()
    square = [[Polynomial.zero()] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(6):
            acc = Polynomial.zero()
            for l in range(6):
                acc = acc + entries[i][l] * entries[l][j]
            square[i][j] = acc
        trace_sq = trace_sq + square[i][i]
    lam = trace_sq * Fraction(1, 6)
    for i in range(6):
        for j in range(6):
            expected = lam if i == j else Polynomial.zero()
            if square[i][j] != expected:
                raise KSquareNotScalar(f"K^2 entry ({i + 1},{j + 1}) differs from lambda*Id")
    return KOperator(entries, lam)


def h_form(omega: KForm, k: KOperator) -> Bilinear:
    """h(e_i, e_j) = omega(e_i, K e_j); the radical-free surrogate of the metric.

    When lambda < 0 and omega ^ psi = 0, h is symmetric and definite exactly
    when the metric omega(., J.) is.
    """
    if omega.dim != 6 or omega.degree != 2:
        raise DimensionMismatch("h_form needs a 2-form on dimension 6")
    entries = [[Polynomial.zero()] * 6 for _ in range(6)]
    for i in range(1, 7):
        for j in range(1, 7):
            acc = Polynomial.zero()
            col = k.column(j)
            for l in range(1, 7):
                if not col[l - 1].is_zero():
                    acc = acc + form_value(omega, i, l) * col[l - 1]
            entries[i - 1][j - 1] = acc
    return Bilinear(6, entries)


class SU3Verdict(enum.Enum):
    PASSES = "Passes"
    FAILS_NONDEGENERACY = "FailsNondegeneracy"
    FAILS_STABILITY = "FailsStability"
    FAILS_PRIMITIVITY = "FailsPrimitivity"
    FAILS_POSITIVITY = "FailsPositivity"


def su3_check(omega: KForm, psi: KForm) -> SU3Verdict:
    """Decide whether a numeric pair (omega, psi) defines an SU(3)-structure.

    Conditions, in order: omega^3 != 0; lambda(psi) < 0; omega ^ psi = 0;
    h = omega(., K.) definite.  Either definite sign is accepted, since the
    paper's orientation can always be flipped; this is the weaker reading and
    hence safe for non-existence certification.
    """
    vol = top_coefficient(wedge(wedge(omega, omega), omega))
    if vol.is_zero():
        return SU3Verdict.FAILS_NONDEGENERACY
    k = k_psi(psi)
    lam = k.lam.constant_value()
    if lam >= 0:
        return SU3Verdict.FAILS_STABILITY
    if not wedge(omega, psi).is_zero():
        return SU3Verdict.FAILS_PRIMITIVITY
    h = h_form(omega, k)
    if not h.is_symmetric():
        return SU3Verdict.FAILS_POSITIVITY
    if is_definite(h) in (Definiteness.POS_DEF, Definiteness.NEG_DEF):
        return SU3Verdict.PASSES
    return SU3Verdict.FAILS_POSITIVITY
