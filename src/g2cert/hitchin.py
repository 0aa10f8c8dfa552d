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

K and h have one ring-generic kernel each: k_matrix sums a fixed table of
150 signed coefficient products of psi (the symmetric pairs of the 240
products of iota psi ^ psi merged into doubled entries), and h_entry forms
one entry of h = W K from omega's antisymmetric matrix W.  Both read forms
as mask -> coefficient dicts and take the ring's zero, so k_psi and h_form
run them over Polynomial and the integer sampler (numeric) over int.

The Hitchin identity K^2 = lambda * Id is proved once per process, when
_k_products builds the table: _prove_k_square multiplies out K^2 for the
generic 3-form, whose 20 coefficients are independent variables, in
integer quartic monomials.  Every psi over int or Polynomial is a
specialization of that generic form, and k_matrix evaluates the same table
with ring operations only, so its K satisfies the identity whenever the
generic K does.  k_matrix therefore computes lambda from tr(K^2) alone.
b_phi and h_form compute an entry when it is first read: the verifiers
read one or two diagonal entries, not the whole matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import mul
from typing import Callable, Mapping, Sequence

from .errors import DimensionMismatch, KSquareNotScalar
from .forms import KForm, contractions, merge_sign, top_coefficient, wedge
from .poly import Polynomial

FULL6 = (1 << 6) - 1


class Bilinear:
    """n x n matrix whose entries are computed on first read, by
    compute(i, j) with 1-based indices, and then kept."""

    __slots__ = ("dim", "_compute", "_entries")

    def __init__(self, dim: int, compute: Callable[[int, int], Polynomial]):
        self.dim = dim
        self._compute = compute
        self._entries = [[None] * dim for _ in range(dim)]

    def entry(self, i: int, j: int) -> Polynomial:
        """1-based access; an index outside 1..dim raises IndexError."""
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise IndexError(f"entry ({i}, {j}) of a {self.dim} x {self.dim} matrix")
        row = self._entries[i - 1]
        value = row[j - 1]
        if value is None:
            value = row[j - 1] = self._compute(i, j)
        return value

    def __repr__(self):
        return f"Bilinear(dim={self.dim})"


def b_phi(phi: KForm) -> Bilinear:
    """The G2 bilinear map of a 3-form on a 7-dimensional space.

    entry(i, j) = 1/6 * top(iota_{e_i} phi ^ iota_{e_j} phi ^ phi), computed
    when it is read, from the contractions of phi (all seven come from one
    pass over its terms); symmetric since the contracted factors have even
    degree.
    """
    if phi.dim != 7:
        raise DimensionMismatch("b_phi needs a 3-form on dimension 7")
    if phi.degree != 3:
        raise DimensionMismatch("b_phi needs a 3-form")
    iota = contractions(phi)
    return Bilinear(7, lambda i, j: b_entry(phi, iota[i - 1], iota[j - 1]))


def b_entry(phi: KForm, iota_i: KForm, iota_j: KForm) -> Polynomial:
    """1/6 * top(iota_i ^ iota_j ^ phi), for two contractions of phi."""
    return top_coefficient(wedge(wedge(iota_i, iota_j), phi)) * Fraction(1, 6)


@cache
def _k_products() -> tuple:
    """(row, col, mask_a, mask_b, sign, twice): K[row][col] is the sum over
    the 150 entries of sign * psi[mask_a] * psi[mask_b], doubled when twice.

    Column i - 1 is iota_{e_i} psi ^ psi: mask_a contains e_i, the
    contraction leaves mask_a ^ e_i, which is wedged with a disjoint mask_b
    into a 5-form; its missing index j gives row j - 1, with the sign of
    putting e^j in front (volume e^123456, 1-form-first pairing).  Each of
    the three signs (contraction, wedge, front) is the merge_sign of a pair
    of masks, the rule the forms module reads.  That gives 240 signed
    products.  When mask_b also contains e_i, (mask_b, mask_a) is one of
    them too, with the same row, column and sign, so the two are merged
    into one doubled entry: 60 entries are single and 90 doubled.  The
    table is returned only after _prove_k_square accepts it.
    """
    triples = [m for m in range(1 << 6) if m.bit_count() == 3]
    merged = {}
    for i in range(1, 7):
        low = 1 << (i - 1)
        for mask_a in triples:
            if not mask_a & low:
                continue
            rest = mask_a ^ low
            contract_sign = merge_sign(low, rest)
            for mask_b in triples:
                if rest & mask_b:
                    continue
                five = rest | mask_b
                front = FULL6 ^ five
                sign = contract_sign * merge_sign(rest, mask_b) * merge_sign(front, five)
                key = (front.bit_length() - 1, i - 1, min(mask_a, mask_b), max(mask_a, mask_b))
                merged[key] = merged.get(key, 0) + sign
    table = tuple(key + (1 if w > 0 else -1, abs(w) == 2) for key, w in merged.items())
    _prove_k_square(table)
    return table


def _prove_k_square(table) -> dict:
    """Prove K^2 = lambda * Id for the K that `table` gives the generic
    3-form, and return tr(K^2) as {sorted 4-tuple of masks: integer}.

    Each of the 20 coefficients of the generic form is its own variable, a
    monomial is the sorted tuple of its masks, and K^2 is multiplied out
    with integer coefficients.  Raises KSquareNotScalar unless every
    off-diagonal entry of K^2 vanishes and six times each diagonal entry is
    the trace.  The identity then holds for every 3-form over every
    commutative ring, since k_matrix evaluates the same table there.
    """
    k = [[{} for _ in range(6)] for _ in range(6)]
    for row, col, mask_a, mask_b, sign, twice in table:
        k[row][col][(mask_a, mask_b)] = 2 * sign if twice else sign
    square = [[{} for _ in range(6)] for _ in range(6)]
    for i in range(6):
        for j in range(6):
            out = square[i][j]
            for left, right in zip(k[i], (k[l][j] for l in range(6))):
                for mono_a, coeff_a in left.items():
                    for mono_b, coeff_b in right.items():
                        mono = tuple(sorted(mono_a + mono_b))
                        out[mono] = out.get(mono, 0) + coeff_a * coeff_b
    trace = {}
    for i in range(6):
        for mono, coeff in square[i][i].items():
            trace[mono] = trace.get(mono, 0) + coeff
    trace = {mono: coeff for mono, coeff in trace.items() if coeff}
    for i in range(6):
        for j in range(6):
            six_times = {mono: 6 * coeff for mono, coeff in square[i][j].items() if coeff}
            if six_times != (trace if i == j else {}):
                raise KSquareNotScalar(f"K^2 entry ({i + 1},{j + 1}) differs from lambda*Id")
    return trace


def k_matrix(psi: Mapping[int, object], zero) -> tuple:
    """(K entries, tr(K^2)) of a 3-form on dimension 6 over any ring.

    psi maps index masks to coefficients, and zero is the ring's zero
    (Polynomial.zero() or 0).  entries[j - 1][i - 1] is
    top(e^j ^ iota_{e_i}psi ^ psi): the pairing Lambda^5 = s x Lambda^6 is
    taken with the 1-form in front, which reproduces the almost complex
    structures printed in the source computations (the opposite order gives
    -K, same lambda).

    tr(K^2) = sum of K_ii^2 plus twice the sum of K_il K_li over i < l: 21
    products.  The Hitchin identity K^2 = lambda * Id with lambda =
    tr(K^2)/6 is not checked here; _k_products proved it for the generic
    3-form before this table was first used (see the module docstring).
    """
    coeff = [zero] * (1 << 6)
    for mask, value in psi.items():
        coeff[mask] = value
    entries = [[zero] * 6 for _ in range(6)]
    for row, col, mask_a, mask_b, sign, twice in _k_products():
        a = coeff[mask_a]
        if a:
            b = coeff[mask_b]
            if b:
                p = a * b
                if twice:
                    p = p + p
                if sign > 0:
                    entries[row][col] += p
                else:
                    entries[row][col] -= p
    diagonal = sum(row[i] * row[i] for i, row in enumerate(entries))
    off = sum(entries[i][l] * entries[l][i] for i in range(6) for l in range(i + 1, 6))
    return entries, diagonal + off + off


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
    """K of a 3-form on dimension 6 over Polynomial (see k_matrix)."""
    if psi.dim != 6 or psi.degree != 3:
        raise DimensionMismatch("k_psi needs a 3-form on dimension 6")
    entries, trace_sq = k_matrix(psi.coeffs, Polynomial.zero())
    return KOperator(entries, trace_sq * Fraction(1, 6))


def w_matrix(omega: Mapping[int, object], zero) -> list:
    """The antisymmetric matrix W[i][l] = omega(e_{i+1}, e_{l+1}) of a
    2-form on dimension 6 given as mask -> coefficient."""
    w = [[zero] * 6 for _ in range(6)]
    for mask, value in omega.items():
        i = (mask & -mask).bit_length() - 1
        j = mask.bit_length() - 1
        w[i][j] = value
        w[j][i] = -value
    return w


def h_entry(w: Sequence[Sequence], k: Sequence[Sequence], i: int, j: int):
    """h[i][j] = (W K)[i][j] = omega(e_{i+1}, K e_{j+1}) over any ring,
    0-based: the one product behind h_matrix and h_form."""
    return sum(map(mul, w[i], [row[j] for row in k]))


def h_matrix(omega: Mapping[int, object], k: Sequence[Sequence], zero) -> list:
    """The whole h = W K over any ring (see h_entry)."""
    w = w_matrix(omega, zero)
    return [[h_entry(w, k, i, j) for j in range(6)] for i in range(6)]


def h_form(omega: KForm, k: KOperator) -> Bilinear:
    """h(e_i, e_j) = omega(e_i, K e_j); the radical-free surrogate of the metric.

    Only W is built here; each entry is the h_entry product, computed when
    it is first read.  When lambda < 0 and omega ^ psi = 0, h is symmetric
    and definite exactly when the metric omega(., J.) is.
    """
    if omega.dim != 6 or omega.degree != 2:
        raise DimensionMismatch("h_form needs a 2-form on dimension 6")
    w = w_matrix(omega.coeffs, Polynomial.zero())
    return Bilinear(6, lambda i, j: h_entry(w, k.entries, i - 1, j - 1))
