"""Alternating forms on an n-dimensional space with polynomial coefficients.

Index tuples are stored as bitmasks over the basis 1..n (bit i-1 stands for
e^i), with sign bookkeeping by transposition counting.  Coefficients are
Polynomials; purely numeric forms are just forms with constant coefficients.
Forms are immutable and safe to share.  The exterior product works on the
bare mask -> coefficient dicts (wedge_coeffs), over any coefficient ring;
its sign per mask pair comes from the cached merge_sign, which the integer
sampler's tables in numeric read too.  One contraction loop gives every
iota_{e_i} f at once: contractions returns them as forms (b_phi and
lie.adjoint read them), and antiderivation (the Chevalley-Eilenberg
differential and D*) wedges each with the image of e^i.  The
multiplicative pullback runs on the same dicts.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Mapping, Sequence

from .errors import DegreeMismatch, DegreeZero, DimensionMismatch
from .poly import Polynomial, Scalar

# -- bitmask helpers ----------------------------------------------------


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of a set of 1-based indices (must be distinct)."""
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i}")
        mask |= bit
    return mask


def indices_of(mask: int) -> tuple:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@cache
def merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of sorting the concatenation (a..., b...) of two disjoint masks.

    Cached: there are only 3^n disjoint mask pairs on dimension n (2187 for
    n = 7), and the wedge products of one run ask for them hundreds of
    thousands of times.
    """
    swaps = 0
    b = mask_b
    while b:
        low = b & -b
        # bits of mask_a strictly above this bit of mask_b must jump over it
        swaps += (mask_a >> low.bit_length()).bit_count()
        b ^= low
    return -1 if swaps & 1 else 1


def _coerce_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.const(value)


def _accumulate(out: dict, terms: Mapping[int, object]) -> None:
    """out += terms, on mask -> coefficient dicts; cancelled masks are dropped."""
    for mask, term in terms.items():
        prior = out.get(mask)
        total = term if prior is None else prior + term
        if total:
            out[mask] = total
        else:
            out.pop(mask, None)


class KForm:
    """Alternating k-form; coeffs maps index bitmasks to Polynomials."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs: Mapping[int, Polynomial] | None = None):
        self.dim = dim
        self.degree = degree
        clean = {}
        if coeffs:
            for mask, coeff in coeffs.items():
                coeff = _coerce_poly(coeff)
                if coeff.is_zero():
                    continue
                if mask.bit_count() != degree:
                    raise ValueError(f"mask {mask:b} does not have degree {degree}")
                if mask >= (1 << dim):
                    raise ValueError(f"mask {mask:b} exceeds dimension {dim}")
                clean[mask] = coeff
        self.coeffs = clean

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, indices: Sequence[int]) -> Polynomial:
        return self.coeffs.get(mask_of(indices), Polynomial.zero())

    def terms(self) -> list:
        """Deterministic (indices, coefficient) list."""
        return [(indices_of(m), c) for m, c in sorted(self.coeffs.items())]

    def variables(self) -> frozenset:
        out = frozenset()
        for c in self.coeffs.values():
            out |= c.variables()
        return out

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self.dim == other.dim and self.degree == other.degree and self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for indices, coeff in self.terms():
            name = "e" + "".join(str(i) for i in indices) if indices else "1"
            parts.append(f"({coeff})*{name}")
        return " + ".join(parts)

    def __repr__(self):
        return f"KForm({self})"

    # -- linear structure -------------------------------------------------

    def _check_compatible(self, other: "KForm"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    def __add__(self, other: "KForm") -> "KForm":
        self._check_compatible(other)
        out = dict(self.coeffs)
        _accumulate(out, other.coeffs)
        return KForm(self.dim, self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm(self.dim, self.degree, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, scalar) -> "KForm":
        scalar = _coerce_poly(scalar)
        return KForm(self.dim, self.degree, {m: c * scalar for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    # -- substitution -------------------------------------------------------

    def substitute(self, mapping: Mapping[str, Polynomial | Scalar]) -> "KForm":
        return KForm(self.dim, self.degree, {m: c.substitute(mapping) for m, c in self.coeffs.items()})


# -- operations -----------------------------------------------------------


def wedge_coeffs(a: Mapping[int, object], b: Mapping[int, object]) -> dict:
    """Exterior product of two forms given as mask -> coefficient dicts.

    The coefficients may come from any commutative ring whose zero is falsy,
    such as Polynomial or int; zero coefficients are left out of the result.
    """
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue
            mask = ma | mb
            term = ca * cb
            if merge_sign(ma, mb) < 0:
                term = -term
            prior = out.get(mask)
            total = term if prior is None else prior + term
            if total:
                out[mask] = total
            else:
                out.pop(mask, None)
    return out


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; graded-commutative and associative."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    return KForm(a.dim, a.degree + b.degree, wedge_coeffs(a.coeffs, b.coeffs))


def _contractions(f: Mapping[int, object], dim: int) -> list:
    """iota_{e_i} f for i = 1..dim, as mask -> coefficient dicts: a term
    c e^{i_1..i_k} (i_1 < .. < i_k) gives (-1)^(m-1) c e^{i_1..^i_m..i_k}
    to iota_{e_{i_m}} f."""
    out = [{} for _ in range(dim)]
    for mask, coeff in f.items():
        rem = mask
        position = 0
        while rem:
            low = rem & -rem
            rem ^= low
            out[low.bit_length() - 1][mask ^ low] = -coeff if position & 1 else coeff
            position += 1
    return out


def antiderivation(images: Sequence[Mapping[int, object]], f: Mapping[int, object]) -> dict:
    """The antiderivation that sends e^i to images[i - 1], applied to f:
    sum_i images[i - 1] ^ iota_{e_i} f.

    On a term c e^{i_1..i_k} this is
    sum_m (-1)^(m-1) images[i_m - 1] ^ e^{i_1..^i_m..i_k} * c.  With 2-form
    images de^i it is the Chevalley-Eilenberg differential; with 1-form
    images D* e^i it is the derivation extension of D*.  Forms are
    mask -> coefficient dicts, as for wedge_coeffs.
    """
    out = {}
    for image, inner in zip(images, _contractions(f, len(images))):
        if image and inner:
            _accumulate(out, wedge_coeffs(image, inner))
    return out


def contractions(f: KForm) -> list:
    """iota_{e_i} f for i = 1..n, from one pass over the terms of f; the
    interior product by v is then sum_i v_i iota_{e_i} f."""
    if f.degree == 0:
        raise DegreeZero("cannot contract a 0-form")
    return [KForm(f.dim, f.degree - 1, inner) for inner in _contractions(f.coeffs, f.dim)]


def pullback(matrix: Sequence[Sequence], f: KForm) -> KForm:
    """Pullback F*f for the linear map F with matrix M (F e_j = sum_i M[i][j] e_i).

    The multiplicative extension of F* e^i = sum_j M[i][j] e^j: each term
    c e^{i_1..i_k} becomes c F*e^{i_1} ^ .. ^ F*e^{i_k}, one wedge_coeffs
    product per factor.  Satisfies (F*f)(v_1..v_k) = f(F v_1, .., F v_k),
    hence pullback(M1*M2, f) = pullback(M2, pullback(M1, f)).
    """
    n = f.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatch(f"matrix must be {n}x{n}")
    rows = [
        {1 << j: entry for j, entry in enumerate(map(_coerce_poly, matrix[k])) if entry}
        for k in range(n)
    ]
    out = {}
    for mask, coeff in f.coeffs.items():
        term = {0: coeff}
        for i in indices_of(mask):
            term = wedge_coeffs(term, rows[i - 1])
        _accumulate(out, term)
    return KForm(n, f.degree, out)


def top_coefficient(f: KForm) -> Polynomial:
    """Coefficient of e^{1..n}; the orientation is the ordered basis."""
    if f.degree != f.dim:
        raise DegreeMismatch(f"degree {f.degree} on dimension {f.dim}")
    return f.coeffs.get((1 << f.dim) - 1, Polynomial.zero())


def form_value(f: KForm, i: int, j: int) -> Polynomial:
    """Value omega(e_i, e_j) of a 2-form on two basis vectors."""
    if f.degree != 2:
        raise DegreeMismatch("form_value needs a 2-form")
    if i == j:
        return Polynomial.zero()
    if i < j:
        return f.coeffs.get(mask_of((i, j)), Polynomial.zero())
    return -f.coeffs.get(mask_of((j, i)), Polynomial.zero())


def generic_two_form(dim: int, prefix: str = "alpha") -> KForm:
    """Sum over i<j of prefix_ij e^{ij} with fresh symbolic coefficients."""
    coeffs = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            coeffs[mask_of((i, j))] = Polynomial.var(f"{prefix}_{i}{j}")
    return KForm(dim, 2, coeffs)


def generic_one_form(dim: int, prefix: str = "beta") -> KForm:
    coeffs = {1 << (k - 1): Polynomial.var(f"{prefix}_{k}") for k in range(1, dim + 1)}
    return KForm(dim, 1, coeffs)
