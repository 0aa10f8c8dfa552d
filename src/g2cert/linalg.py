"""Exact linear algebra over Q.

Subspaces (lie.Subspace), Der(s) (derivations.solve_derivations) and the
strong-unimodularity solve are all reduced by rref, over Q; the symbolic
gauge solve is poly.solve_linear's Cramer rule, whose determinant and
numerators are the maximal minors of the augmented matrix, from one
memoized expansion.  rref takes rows of ints and Fractions and eliminates
fraction-free: each row is scaled to primitive integers, each elimination
step cross-multiplies two integer rows and divides the result by its gcd,
and each row is divided by its pivot once, at the end.  Pivoting is positional (first nonzero), and the
reduced row echelon form is unique, so the rows and pivots are those of an
elimination over Fractions.

A basis that rref has reduced has 1 at each row's pivot column and 0 at
every other pivot column.  So the only candidate coordinates of a vector in
that basis are its entries at the pivot columns: membership (in_span)
subtracts that one combination and tests the remainder for zero, with no
second elimination, and lie.Subspace.trace reads the diagonal coordinates
of an operator matrix restricted to the span at the same pivots.  The
vector may have polynomial entries: it then lies in the span for every
value of its parameters exactly when the remainder is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence

from .poly import scalar


def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(rows: Sequence[Sequence], ncols: int) -> tuple:
    """(rows, pivot_columns): the reduced row echelon form of rows of ints
    and Fractions, its zero rows dropped.  Each entry of the result is an
    int when integral, else a Fraction, as in a Polynomial's terms."""
    work = []
    for row in rows:
        q = lcm(*(x.denominator for x in row))
        work.append(_primitive([x.numerator * (q // x.denominator) for x in row]))
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                work[i] = _primitive([p * a - f * b for a, b in zip(row, top)])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [[scalar(x, row[c]) for x in row] for row, c in zip(work, pivots)], pivots


def nullspace(matrix: Sequence[Sequence], ncols: int) -> List[list]:
    """Basis of the right nullspace over Q, one vector per free column.

    Free columns are enumerated in increasing order, which fixes the
    canonical parameter order used by solve_derivations.
    """
    rows, pivots = rref(matrix, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][free]
        basis.append(vec)
    return basis


def in_span(rows: Sequence[Sequence], pivots: Sequence[int], vector: Sequence) -> bool:
    """True when vector lies in the row span of rows.

    rows must be in reduced row echelon form with pivot columns pivots, as
    rref returns them.  Each row then has 1 at its own pivot column and 0 at
    every other pivot column, so subtracting vector[c] * row for each pivot
    c zeroes the pivot columns and leaves vector minus its only candidate
    combination of the rows.  The vector is in the span exactly when that
    remainder is zero.  Every step is exact ring arithmetic, so the test is
    exact for rational vectors and, against rational rows, for Polynomial
    ones.
    """
    remainder = list(vector)
    for row, c in zip(rows, pivots):
        factor = remainder[c]
        if factor:
            remainder = [a - factor * b if b else a for a, b in zip(remainder, row)]
    return not any(remainder)


def det_fraction(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a numeric matrix by Gaussian elimination."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det *= rows[c][c]
        inv = rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                factor = rows[i][c] / inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[c])]
    return det


def leading_minors_int(matrix: Sequence[Sequence[int]]) -> list:
    """Leading principal minors of a square integer matrix, in order, up to
    and including the first zero one.

    One fraction-free elimination without pivoting (Bareiss, Math. Comp. 22,
    1968): the pivot of step k is the (k+1) x (k+1) leading minor, and each
    division by the previous pivot is exact.  A zero pivot ends the pass,
    since elimination cannot go on without a row swap.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    minors = []
    previous = 1
    for k in range(n):
        pivot = rows[k][k]
        minors.append(pivot)
        if pivot == 0:
            break
        for i in range(k + 1, n):
            row, factor = rows[i], rows[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * rows[k][j]) // previous
        previous = pivot
    return minors
