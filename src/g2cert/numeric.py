"""Integer fast path for the randomized SU(3) falsifier.

A symbolic form is compiled once, against an ordered list of variables,
into integer term lists (CompiledForm).  Each sample is then put over one
common denominator and the form is evaluated in integers: the result is the
form's value scaled by a positive rational, reduced so that it equals the
value with its denominators cleared (the SU(3) verdict is invariant under
scaling omega and psi by positive rationals).  Forms are dicts mapping index
bitmasks to Python ints.  The SU(3) predicate mirrors hitchin.su3_check
exactly and is cross-validated against it in the tests.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

from .errors import KSquareNotScalar, MissingVariable
from .forms import KForm, merge_sign
from .linalg import leading_minors_int

FULL6 = (1 << 6) - 1


class CompiledForm:
    """A form (or any map key -> Polynomial) compiled for integer evaluation.

    Each coefficient becomes a list of terms (integer coefficient, degree
    gap, variable positions with repetition).  Coefficients are scaled by
    the lcm q of their denominators, and each monomial is raised to the top
    degree d of the form by the gap power of the common denominator L of a
    sample, so every coefficient's value times q * L^d is an integer.
    """

    def __init__(self, coeffs: Mapping, variables: Sequence[str]):
        position = {name: i for i, name in enumerate(variables)}
        scale = 1
        degree = 0
        for poly in coeffs.values():
            for mono, coeff in poly.terms.items():
                scale = lcm(scale, coeff.denominator)
                degree = max(degree, sum(exp for _, exp in mono))
                for name, _ in mono:
                    if name not in position:
                        raise MissingVariable(name)
        self.scale = scale
        self.degree = degree
        self.rows = []
        for key, poly in coeffs.items():
            terms = []
            for mono, coeff in poly.terms.items():
                factors = tuple(position[name] for name, exp in mono for _ in range(exp))
                terms.append((int(coeff * scale), degree - len(factors), factors))
            self.rows.append((key, terms))

    def evaluate(self, point) -> dict:
        """Nonzero values at an integer_point, divided by the gcd of them and
        scale * L^degree: exactly the values with denominators cleared."""
        numerators, common = point
        powers = [1]
        for _ in range(self.degree):
            powers.append(powers[-1] * common)
        divisor = self.scale * powers[-1]
        out = {}
        for key, terms in self.rows:
            total = 0
            for coeff, gap, factors in terms:
                value = coeff * powers[gap]
                for i in factors:
                    value *= numerators[i]
                total += value
            if total:
                out[key] = total
                divisor = gcd(divisor, total)
        if divisor != 1:
            out = {key: value // divisor for key, value in out.items()}
        return out


def integer_point(variables: Sequence[str], assignment) -> tuple:
    """(numerators, L): the rational assignment of `variables` over one
    common denominator L, in the order a CompiledForm was compiled with."""
    try:
        values = [assignment[name] for name in variables]
    except KeyError as exc:
        raise MissingVariable(exc.args[0]) from None
    common = lcm(*(value.denominator for value in values))
    return [value.numerator * (common // value.denominator) for value in values], common


def eval_form_int(form: KForm, assignment) -> dict:
    """Evaluate coefficients and clear denominators (positive scaling)."""
    variables = sorted(form.variables())
    return CompiledForm(form.coeffs, variables).evaluate(integer_point(variables, assignment))


def wedge_int(a: dict, b: dict) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue
            mask = ma | mb
            term = ca * cb if merge_sign(ma, mb) > 0 else -ca * cb
            new = out.get(mask, 0) + term
            if new:
                out[mask] = new
            else:
                out.pop(mask, None)
    return out


def omega_cubed_int(omega: dict) -> int:
    """The coefficient of e^123456 in omega^3."""
    return wedge_int(wedge_int(omega, omega), omega).get(FULL6, 0)


@cache
def _k_table() -> tuple:
    """(row, col, mask_a, mask_b, sign): K[row][col] is the sum of
    sign * psi[mask_a] * psi[mask_b] over the 240 entries.

    Column i - 1 is iota_{e_i} psi ^ psi: mask_a contains e_i, the
    contraction leaves mask_a ^ e_i, which is wedged with a disjoint mask_b
    into a 5-form; its missing index j gives row j - 1, with the sign of
    putting e^j in front (volume e^123456, 1-form-first pairing).
    """
    triples = [m for m in range(1 << 6) if m.bit_count() == 3]
    table = []
    for i in range(1, 7):
        low = 1 << (i - 1)
        for mask_a in triples:
            if not mask_a & low:
                continue
            rest = mask_a ^ low
            contract_sign = -1 if (mask_a & (low - 1)).bit_count() & 1 else 1
            for mask_b in triples:
                if rest & mask_b:
                    continue
                five = rest | mask_b
                j = (FULL6 ^ five).bit_length()
                front_sign = -1 if (five & ((1 << (j - 1)) - 1)).bit_count() & 1 else 1
                sign = contract_sign * merge_sign(rest, mask_b) * front_sign
                table.append((j - 1, i - 1, mask_a, mask_b, sign))
    return tuple(table)


def k_matrix_int(psi: dict):
    """(K entries as ints, tr(K^2)); volume e^123456, 1-form-first pairing."""
    coeff = [0] * (1 << 6)
    for mask, value in psi.items():
        coeff[mask] = value
    entries = [[0] * 6 for _ in range(6)]
    for row, col, mask_a, mask_b, sign in _k_table():
        a = coeff[mask_a]
        if a:
            b = coeff[mask_b]
            if b:
                entries[row][col] += a * b if sign > 0 else -a * b
    columns = list(zip(*entries))
    diagonal = []
    for i, row in enumerate(entries):
        for j, column in enumerate(columns):
            s = sum(map(mul, row, column))
            if i == j:
                diagonal.append(s)
            elif s != 0:
                raise KSquareNotScalar(f"integer K^2 off-diagonal ({i + 1},{j + 1})")
    trace_sq = sum(diagonal)
    for i, s in enumerate(diagonal):
        if 6 * s != trace_sq:
            raise KSquareNotScalar(f"integer K^2 diagonal ({i + 1},{i + 1})")
    return entries, trace_sq


def candidate_conditions_int(omega: dict, psi: dict):
    """K of psi (k_matrix_int entries) when omega^3 != 0 and lambda < 0,
    else None: the conditions a sampled pair must meet to be a trial."""
    k, trace_sq = k_matrix_int(psi)
    if trace_sq >= 0 or not omega_cubed_int(omega):
        return None
    return k


def su3_passes_int(omega: dict, psi: dict, k=None) -> bool:
    """True when the integer pair passes all four SU(3) conditions.

    Mirrors hitchin.su3_check with either definite sign accepted.  A caller
    that has already checked the candidate conditions passes their K as `k`.
    """
    if k is None:
        k = candidate_conditions_int(omega, psi)
        if k is None:
            return False
    if wedge_int(omega, psi):
        return False
    w = [[0] * 6 for _ in range(6)]
    for mask, value in omega.items():
        i = (mask & -mask).bit_length() - 1
        j = mask.bit_length() - 1
        w[i][j] = value
        w[j][i] = -value
    k_columns = list(zip(*k))
    h = [[sum(map(mul, row, column)) for column in k_columns] for row in w]
    for i in range(6):
        for j in range(i + 1, 6):
            if h[i][j] != h[j][i]:
                return False
    minors = leading_minors_int(h)
    if minors[-1] == 0:
        return False
    if all(m > 0 for m in minors):
        return True
    return all((m < 0) if (idx % 2 == 0) else (m > 0) for idx, m in enumerate(minors))
