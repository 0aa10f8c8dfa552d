"""Exact sparse multivariate polynomials over Q, and the symbolic gauge solve.

There is no rational-function type: subspaces and the linear solves of
linalg are over Q, and the one solve with polynomial entries
(`solve_linear`, Cramer's rule read off the maximal minors of the
augmented matrix in one memoized expansion) returns polynomial numerators
over one determinant, which `substitute_cramer` substitutes without
forming a quotient.

A monomial is a tuple of (variable, exponent) pairs, sorted by variable name,
every exponent positive; the empty tuple is the constant monomial.  A
polynomial maps monomials to nonzero rational coefficients, so zero is the
empty map and equality is dict equality.  A stored coefficient is an int
when it is integral and otherwise a Fraction with denominator > 1, so each
value has one representation and integer arithmetic needs no Fraction;
`scalar` owns that rule and every constructor and operation applies it.
`constant_value`, `leading` and `content` return Fractions, so a caller
that divides stays exact.  No floating point anywhere: a float or a bool
coefficient or scalar raises TypeError.

Variable names use one flat namespace with reserved prefixes so the different
parameter families never collide:

  alpha_*  coefficients of generic 2-forms
  beta_*   coefficients of generic 1-forms
  a_*      derivation parameters
  s_*      gauge parameters
  fam_*    structure-constant family parameters

`Polynomial.collect(names)` reads a polynomial as one in some of its
variables (the derivation parameters of a trace condition, the gauge
parameters of a pulled-back coefficient): it groups the terms by their
monomial in those variables.  It is the one place that splits terms by
variable.

A nonnegativity witness has no tree type here: `catalog.expand_witness`
reads the catalog's JSON tree straight into its Polynomial, and
`check_nonneg_witness` compares that expansion with its target.

Term iteration is deterministic: graded lexicographic, variables ordered by
name.  This keeps rendered reports byte-stable across runs.

The product kernel keeps that representation outside and works on integers
inside (packed exponent vectors, after Monagan and Pearce, CASC 2007).  Its
helpers are shared by `Polynomial.__mul__` and `substitute_cramer`:

  _layout      one field per variable, in name order, each deg.bit_length()
               bits wide for a bound deg on the total degree of every term
               the caller forms, so an exponent fits its field and adding
               two packed vectors never carries: the sum is the packed
               product monomial;
  _pack        a term map as (packed vector, int) pairs, its coefficients
               scaled to ints by the lcm of their denominators (1 when
               every coefficient is an int);
  _mul_into    the one multiply loop: integer products accumulated per
               packed monomial (`_packed_product` runs it into a fresh
               accumulator and keeps the product packed);
  _decode      the nonzero sums as a term map, each divided by the common
               denominator on the way out (an int wherever it divides).

A product with a one-term operand maps each term of the other operand,
which cannot make like terms.  Every other product lays out the union of
the operands' variables with the bound deg a + deg b and decodes over the
product of the two lcms.  `substitute_cramer` packs its inputs once, keeps
its intermediate products packed, and decodes only its result.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping, Union

from .errors import ExpansionMismatch, MissingVariable, SingularSymbolicSystem

Monomial = tuple  # tuple[tuple[str, int], ...]
Scalar = Union[int, Fraction]

ONE_MONOMIAL: Monomial = ()


def scalar(value, den: int = 1) -> Scalar:
    """value / den as a stored coefficient: an int when it is integral, else
    a Fraction with denominator > 1.  value is an int over a nonzero int
    den, or a Fraction (den 1); a float, a bool or any other type raises
    TypeError."""
    if type(value) is int:
        if den == 1:
            return value
        return value // den if value % den == 0 else Fraction(value, den)
    if type(value) is Fraction and den == 1:
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"a coefficient is an int or a Fraction, not {type(value).__name__}")


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Merge two sorted (var, exp) tuples, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial):
    """Graded lex key: higher degree first, then lex on variable names.

    For equal degrees, the monomial whose exponent vector is
    lexicographically largest (variables sorted by name) comes first.
    """
    return (-_mono_degree(m), tuple((v, -e) for v, e in m))


def _layout(names, degree: int) -> tuple:
    """(shifts, width): one field per variable, in name order, each wide
    enough for an exponent up to `degree`, the total degree of any term the
    packed loop forms, so that adding packed vectors never carries."""
    width = degree.bit_length()
    return {v: i * width for i, v in enumerate(sorted(names))}, width


def _pack(terms: dict, shifts: dict) -> tuple:
    """([(packed exponent vector, integer coefficient)], q): the terms
    scaled to integers by q, the lcm of their denominators."""
    q = lcm(*(c.denominator for c in terms.values()))
    packed = []
    for mono, coeff in terms.items():
        key = 0
        for v, e in mono:
            key += e << shifts[v]
        packed.append((key, coeff if q == 1 else coeff.numerator * (q // coeff.denominator)))
    return packed, q


def _mul_into(acc: defaultdict, a: list, b: list) -> None:
    """Add the product of two packed polynomials into the accumulator `acc`
    (packed monomial -> integer coefficient)."""
    for ka, ca in a:
        for kb, cb in b:
            acc[ka + kb] += ca * cb


def _packed_product(a: list, b: list) -> list:
    """The packed product of two packed polynomials, cancelled terms dropped."""
    acc = defaultdict(int)
    _mul_into(acc, a, b)
    return [(key, c) for key, c in acc.items() if c]


def _decode(acc: dict, shifts: dict, width: int, q: int) -> dict:
    """The term map of the packed sums in `acc` over the denominator q: each
    nonzero sum c becomes the term c / q of its unpacked monomial."""
    mask = (1 << width) - 1
    fields = [(v, mask << s, s) for v, s in shifts.items()]
    pairs = {}  # masked field -> its (name, exponent) pair, shared by the result
    out = {}
    for key, c in acc.items():
        if not c:
            continue
        mono = []
        for v, field, shift in fields:
            f = key & field
            if f:
                pair = pairs.get(f)
                if pair is None:
                    pair = pairs[f] = (v, f >> shift)
                mono.append(pair)
                key ^= f
                if not key:
                    break
        out[tuple(mono)] = c if q == 1 else scalar(c, q)
    return out


def _product(a: dict, b: dict) -> dict:
    """The term map of the product of two polynomials, given their term maps."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    if len(a) == 1:
        # distinct monomials times one monomial stay distinct
        ((m1, c1),) = a.items()
        out = {}
        for m2, c2 in b.items():
            c = c1 * c2
            out[_mono_mul(m1, m2)] = c if type(c) is int else scalar(c)
        return out
    names = {v for m in a for v, _ in m} | {v for m in b for v, _ in m}
    shifts, width = _layout(names, max(map(_mono_degree, a)) + max(map(_mono_degree, b)))
    packed_a, qa = _pack(a, shifts)
    packed_b, qb = _pack(b, shifts)
    acc = defaultdict(int)
    _mul_into(acc, packed_a, packed_b)
    return _decode(acc, shifts, width, qa * qb)


def _add_into(out: dict, terms: dict) -> None:
    """Add the term map `terms` into the term map `out`, in place."""
    for mono, coeff in terms.items():
        old = out.get(mono)
        if old is None:
            out[mono] = coeff
            continue
        new = old + coeff
        if type(new) is not int:
            new = scalar(new)
        if new:
            out[mono] = new
        else:
            del out[mono]


def _wrap(terms: dict) -> "Polynomial":
    """A Polynomial around a term map already in stored form (no copy)."""
    result = Polynomial.__new__(Polynomial)
    result._terms = terms
    return result


class Polynomial:
    """Immutable sparse polynomial with rational coefficients, each an int
    when integral and otherwise a Fraction (see `scalar`)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = scalar(coeff)
                if coeff:
                    clean[mono] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(value: Scalar) -> "Polynomial":
        value = scalar(value)
        return _wrap({ONE_MONOMIAL: value} if value else {})

    @staticmethod
    def var(name: str, exponent: int = 1) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        if exponent == 0:
            return Polynomial.const(1)
        return _wrap({((name, exponent),): 1})

    @staticmethod
    def sum(parts) -> "Polynomial":
        """The sum of an iterable of polynomials, accumulated in one term
        map rather than one copy per addition."""
        out = {}
        for part in parts:
            _add_into(out, part._terms)
        return _wrap(out)

    @staticmethod
    def product(factors) -> "Polynomial":
        """The product of an iterable of polynomials.  The one-term factors
        (names, constants, powers of names) merge into one term first: one
        coefficient product and one exponent map.  That term then meets
        each factor of several terms through the product kernel."""
        coeff, exps, rest = 1, {}, []
        for factor in factors:
            terms = factor._terms
            if len(terms) != 1:
                if not terms:
                    return P_ZERO
                rest.append(terms)
                continue
            ((mono, c),) = terms.items()
            coeff *= c
            for v, e in mono:
                exps[v] = exps.get(v, 0) + e
        out = {tuple(sorted(exps.items())): scalar(coeff)}
        for terms in rest:
            out = _product(out, terms)
        return _wrap(out)

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and ONE_MONOMIAL in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if not constant)."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[ONE_MONOMIAL])

    def variables(self) -> frozenset:
        return frozenset(v for mono in self._terms for v, _ in mono)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(_mono_degree(m) for m in self._terms)

    def collect(self, names) -> dict:
        """The polynomial read as a polynomial in `names`: a map from each
        monomial in those variables to its coefficient, a nonzero polynomial
        free of them, so that sum(monomial * coefficient) is self."""
        groups = {}
        for mono, coeff in self._terms.items():
            key = tuple(f for f in mono if f[0] in names)
            rest = tuple(f for f in mono if f[0] not in names)
            groups.setdefault(key, {})[rest] = coeff
        return {key: Polynomial(terms) for key, terms in groups.items()}

    def sorted_terms(self) -> list:
        return sorted(self._terms.items(), key=lambda kv: _mono_key(kv[0]))

    def leading(self) -> tuple:
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = min(self._terms, key=_mono_key)
        return mono, Fraction(self._terms[mono])

    def content(self) -> Fraction:
        """Positive rational gcd of the coefficients (0 for the zero poly)."""
        num = 0
        den = 1
        for c in self._terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        if num == 0:
            return Fraction(0)
        return Fraction(num, den)

    def normal_scale(self) -> Fraction:
        """The content, negated when the leading coefficient is negative.

        Dividing by it gives the normal form of a nonzero polynomial up to a
        rational factor: content 1 and a positive leading coefficient.  A
        trace equation = 0 is stored in this form, and so is the
        denominator of a gauge certificate's rendered det_multiple."""
        _, lead = self.leading()
        scale = self.content()
        return -scale if lead < 0 else scale

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        _add_into(out, other._terms)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = scalar(other)
            return _wrap(_product(self._terms, {ONE_MONOMIAL: other} if other else {}))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _wrap(_product(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self._terms) == 1 and exponent:
            ((mono, c),) = self._terms.items()
            return _wrap({tuple((v, e * exponent) for v, e in mono): scalar(c**exponent)})
        result = Polynomial.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._terms == ({ONE_MONOMIAL: other} if other else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- evaluation and substitution -----------------------------------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a full rational assignment."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for var, exp in mono:
                if var not in assignment:
                    raise MissingVariable(var)
                value *= scalar(assignment[var]) ** exp
            total += value
        return total

    def substitute(self, mapping: Mapping[str, "Polynomial | Scalar"]) -> "Polynomial":
        """Replace some variables by polynomials (or rationals): the packed
        substitute_cramer pass over the denominator 1, on the names of the
        mapping that occur in self."""
        names = self.variables()
        images = {
            v: image if isinstance(image, Polynomial) else Polynomial.const(image)
            for v, image in mapping.items()
            if v in names
        }
        return substitute_cramer(self, list(images), list(images.values()), P_ONE)[0]

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial | None":
        """Quotient self/divisor when the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quotient = Polynomial.zero()
        remainder = self
        d_mono, d_coeff = divisor.leading()
        d_map = dict(d_mono)
        while not remainder.is_zero():
            r_mono, r_coeff = remainder.leading()
            r_map = dict(r_mono)
            q_map = {}
            ok = True
            for var, exp in d_map.items():
                have = r_map.get(var, 0)
                if have < exp:
                    ok = False
                    break
            if not ok:
                return None
            for var, exp in r_map.items():
                rest = exp - d_map.get(var, 0)
                if rest:
                    q_map[var] = rest
            q_mono = tuple(sorted(q_map.items()))
            q_term = Polynomial({q_mono: r_coeff / d_coeff})
            quotient = quotient + q_term
            remainder = remainder - q_term * divisor
        return quotient

    # -- rendering ----------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            if abs(coeff) != 1 or not mono:
                factors.append(str(abs(coeff)))
            for var, exp in mono:
                factors.append(var if exp == 1 else f"{var}^{exp}")
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


P_ZERO = Polynomial.zero()
P_ONE = Polynomial.const(1)


# -- nonnegativity witnesses -------------------------------------------


def check_nonneg_witness(target: Polynomial, expansion: Polynomial) -> bool:
    """True when the expansion of a witness tree (`catalog.expand_witness`)
    is term-identical to target, which then takes only nonnegative real
    values.  Raises ExpansionMismatch carrying the nonzero difference
    otherwise."""
    difference = expansion - target
    if not difference.is_zero():
        raise ExpansionMismatch(difference)
    return True


# -- symbolic linear systems -------------------------------------------


def solve_linear(matrix, rhs) -> tuple:
    """(det, numerators): Cramer's rule for a square system of Polynomial
    equations, so that unknown i is numerators[i] / det wherever det != 0.

    Each is a maximal minor of the augmented matrix [matrix | rhs]: det
    omits the rhs column, and numerator i is (-1)^(n-1-i) times the minor
    that omits column i.  One row expansion, memoized over column sets,
    gives all n + 1 of them (30 minors for a 4x4 system).  Raises
    SingularSymbolicSystem when det is identically zero.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_linear requires a square system")
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    minors = {0: P_ONE}

    def minor(cols: int) -> Polynomial:
        """The minor of the last popcount(cols) rows on the columns in cols."""
        if cols not in minors:
            row, terms, sign = rows[n - cols.bit_count()], [], 1
            for j in range(n + 1):
                if (cols >> j) & 1:
                    if row[j]:
                        term = row[j] * minor(cols ^ (1 << j))
                        terms.append(term if sign > 0 else -term)
                    sign = -sign
            minors[cols] = Polynomial.sum(terms)
        return minors[cols]

    full = (1 << (n + 1)) - 1
    det = minor(full ^ (1 << n))
    if det.is_zero():
        raise SingularSymbolicSystem(det)
    numerators = [minor(full ^ (1 << i)) for i in range(n)]
    return det, [num if (n - 1 - i) % 2 == 0 else -num for i, num in enumerate(numerators)]


def substitute_cramer(poly: Polynomial, svars, numerators, den: Polynomial):
    """Substitute s_i = numerators[i]/den into poly, returning (N, d) with
    poly(sbar) = N / den^d and d the total degree of poly in the s variables.

    Works entirely in the polynomial ring, avoiding the denominator blowup
    of repeated rational-function addition.  With poly grouped by its
    monomials m in the s variables, N = sum_m c_m * P_m, where c_m is the
    s-free coefficient of m and P_m = prod_i N_i^(m_i) * den^(d - |m|), with
    N_i = numerators[i].  N is formed in one
    pass of the product kernel's helpers.  The coefficients, the numerators
    that occur and den are packed once over one variable order, each field
    (max deg c_m + d * max(deg N_i, deg den)).bit_length() bits wide, which
    bounds the degree of every term of N, so no packed sum carries.  Each
    power N_i^e and den^g is formed once per call, and each P_m once.  Every
    c_m is scaled to the common denominator Q, the lcm of the groups'
    scales, and multiplied by P_m straight into one integer accumulator, so
    only the nonzero sums of the result are decoded, as c / Q in stored form.
    """
    groups = poly.collect(set(svars))
    degree = max(map(_mono_degree, groups), default=0)
    if degree == 0:
        return poly, 0
    image = dict(zip(svars, numerators))
    bases = {v: image[v] for mono in groups for v, _ in mono}
    bases[None] = den  # den^g is the power of the key None
    names = {v for p in (*bases.values(), *groups.values()) for m in p.terms for v, _ in m}
    top = max(p.total_degree() for p in bases.values())
    cdeg = max(c.total_degree() for c in groups.values())
    shifts, width = _layout(names, cdeg + degree * top)
    packed = {v: _pack(p.terms, shifts) for v, p in bases.items()}
    powers = {}

    def power(v, e: int) -> list:
        """The packed bases[v]^e, formed once per call."""
        if e == 1:
            return packed[v][0]
        if (v, e) not in powers:
            powers[v, e] = _packed_product(power(v, e - 1), packed[v][0])
        return powers[v, e]

    plan = []
    for mono, coeff in groups.items():
        gap = degree - _mono_degree(mono)
        factors = list(mono) + ([(None, gap)] if gap else [])
        packed_c, qc = _pack(coeff.terms, shifts)
        plan.append((packed_c, factors, qc * prod(packed[v][1] ** e for v, e in factors)))
    common = lcm(*(scale for _, _, scale in plan))
    acc = defaultdict(int)
    for packed_c, factors, scale in plan:
        p_m = power(*factors[0])
        for v, e in factors[1:]:
            p_m = _packed_product(p_m, power(v, e))
        k = common // scale
        _mul_into(acc, [(key, c * k) for key, c in packed_c], p_m)
    return _wrap(_decode(acc, shifts, width, common)), degree
