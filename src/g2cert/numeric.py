"""Integer fast path for the randomized SU(3) falsifier.

A symbolic form is compiled once, against an ordered list of variables,
into integer term lists (CompiledForm).  Each sample is then put over one
common denominator and the form is evaluated in integers: the result is the
form's value scaled by a positive rational, reduced so that it equals the
value with its denominators cleared (the SU(3) verdict is invariant under
scaling omega and psi by positive rationals).  Forms are dicts mapping index
bitmasks to Python ints.  The exterior product, K and h are the
ring-generic kernels of forms and hitchin run over int, and su3_passes_int
is the package's one SU(3) predicate; the tests check it against an
independent contraction-based oracle.

Each check reads only what its verdict needs, in this order.  A sampled
pair becomes a trial when it meets candidate_conditions_int: lambda < 0,
tested first and given by its sign alone, then omega^3 != 0, so omega is
evaluated only when lambda < 0 holds; most draws fail on lambda.  The
sampler (certify.PairSampler) reads that sign from lambda compiled once,
since lambda(c psi) = c^4 lambda(psi) for the positive scale c of a
sample, and evaluates psi only for a trial.  su3_passes_int then tests
omega ^ psi = 0 first, and builds K only for a primitive pair, whose
lambda comes from tr(K^2) alone: the identity K^2 = lambda * Id is not
checked per pair, because hitchin proves it once for the generic 3-form,
of which every integer psi is a specialization.  The top coefficient of
omega^3 is read from a table of the 15 perfect matchings of 1..6, built
once.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Mapping, Sequence

from .errors import MissingVariable
from .forms import KForm, merge_sign, wedge_coeffs
from .hitchin import FULL6, h_matrix, k_matrix
from .linalg import leading_minors_int


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


@cache
def _cube_products() -> tuple:
    """(m1, m2, m3, weight): the coefficient of e^123456 in omega^3 is the
    sum over the 15 entries of weight * omega[m1] * omega[m2] * omega[m3].

    The entries are the perfect matchings of 1..6 into three pairs; the 3!
    orders of one matching give the same term, since 2-forms commute, so
    weight is 6 times the sign of sorting the matching's indices.
    """
    table = []
    for m1, m2, m3 in combinations([m for m in range(1 << 6) if m.bit_count() == 2], 3):
        if m1 | m2 | m3 == FULL6:
            table.append((m1, m2, m3, 6 * merge_sign(m1, m2) * merge_sign(m1 | m2, m3)))
    return tuple(table)


def omega_cubed_int(omega: Mapping[int, int]) -> int:
    """The coefficient of e^123456 in omega^3."""
    get = omega.get
    return sum(
        weight * get(m1, 0) * get(m2, 0) * get(m3, 0) for m1, m2, m3, weight in _cube_products()
    )


def candidate_conditions_int(lam, omega_of: Callable[[], dict]):
    """omega when lambda < 0 and omega^3 != 0, else None: the conditions a
    sampled pair must meet to be a trial.

    `lam` is lambda(psi) or any number of its sign: the sampler passes its
    compiled lambda at a positively scaled point, su3_passes_int the trace
    of K^2.  It is tested first, and only then is omega_of() called for
    omega, so a pair that fails on lambda never evaluates its omega.
    """
    if lam >= 0:
        return None
    omega = omega_of()
    if not omega_cubed_int(omega):
        return None
    return omega


def su3_passes_int(omega: dict, psi: dict) -> bool:
    """True when the integer pair passes all four SU(3) conditions.

    The conditions are omega ^ psi = 0, lambda(psi) < 0, omega^3 != 0, and
    h = omega(., K.) symmetric and definite; they are tested in that
    order, so K (150 products) and its trace (21 more) are built only for
    a primitive pair.  Once lambda < 0, omega ^ psi = 0 says that omega is
    of type (1,1) for the complex structure of psi, and then h is
    symmetric, so symmetry is not tested separately.  Either definite sign
    is accepted, since the paper's orientation can always be flipped; this
    is the weaker reading and hence safe for non-existence certification.
    """
    if wedge_coeffs(omega, psi):
        return False
    k, trace_sq = k_matrix(psi, 0)
    if candidate_conditions_int(trace_sq, lambda: omega) is None:
        return False
    minors = leading_minors_int(h_matrix(omega, k, 0))
    if minors[-1] == 0:
        return False
    if all(m > 0 for m in minors):
        return True
    return all((m < 0) if (idx % 2 == 0) else (m > 0) for idx, m in enumerate(minors))
