"""Integer fast path for the randomized SU(3) falsifier, and its sampler.

A symbolic form is compiled once, against an ordered list of variables,
into a straight-line Python function (CompiledForm.kernel), generated
from its terms and passed through compile() once.  The generated source
holds only integer literals and list indices; row keys and variable names
stay in Python data.  Each sample is one integer point: numerators over
one common denominator L, and the form is evaluated there in integers:
the result is the form's value scaled by a positive rational, reduced so
that it equals the value with its denominators cleared (the SU(3) verdict
is invariant under scaling omega and psi by positive rationals).  Forms
are dicts mapping index bitmasks to Python ints.  The exterior product, K
and h are the ring-generic kernels of forms and hitchin run over int, and
su3_passes_int is the package's one SU(3) predicate; the tests check it
against an independent contraction-based oracle.

PairSampler draws each sample straight into one integer point, the family
values first and then the free integers, in the order its docstring
gives, with every number drawn by uniform_int, the rejection loop of
CPython 3.11's randint over getrandbits.  Each check reads only what its
verdict needs, in this order.  A sampled pair becomes a trial when it
meets candidate_conditions_int: lambda < 0, tested first and given by its
sign alone, then omega^3 != 0, so omega is evaluated only when lambda < 0
holds; most draws fail on lambda.  The sampler reads that sign from the
kernel of lambda, since lambda(c psi) = c^4 lambda(psi) for the positive
scale c of a sample, and evaluates psi only for a trial.  su3_passes_int
then tests omega ^ psi = 0 first, from a table of the 60 disjoint pairs
of a 2-mask and a 3-mask grouped by their 5-form, and builds K only for a
primitive pair, whose lambda comes from tr(K^2) alone: the identity
K^2 = lambda * Id is not checked per pair, because hitchin proves it once
for the generic 3-form, of which every integer psi is a specialization.
The top coefficient of omega^3 is read from a table of the 15 perfect
matchings of 1..6.  Both tables are built once.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import Callable, Mapping, Sequence

from .errors import AtomUnsatisfiableAfterBudget, G2CertError, MissingVariable
from .forms import KForm, merge_sign
from .hitchin import FULL6, h_matrix, k_matrix
from .linalg import leading_minors_int


class CompiledForm:
    """A form (or any map key -> Polynomial) compiled for integer evaluation.

    Coefficients are scaled by the lcm q of their denominators, and each
    monomial is raised to the top degree d of the form by a power of the
    common denominator L of a sample, so every coefficient's value times
    q * L^d is an integer.  `kernel(numerators, L)` returns those integers
    as a list, in row order: it is one straight-line function generated from
    the term lists and compiled once.  Its source holds only integer
    literals and list indices; the row keys (`keys`) and the variable names
    stay in Python data.
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
        exec(compile(source, "<CompiledForm>", "exec"), namespace)
        self.kernel = namespace["kernel"]

    def evaluate(self, point) -> dict:
        """Nonzero values at an integer_point, divided by the gcd of them and
        scale * L^degree: exactly the values with denominators cleared."""
        numerators, common = point
        values = self.kernel(numerators, common)
        divisor = gcd(self.scale * common**self.degree, *values)
        return {key: value // divisor for key, value in zip(self.keys, values) if value}


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


@cache
def _primitivity_table() -> tuple:
    """One group per basis 5-form e^target: the coefficient of e^target in
    omega ^ psi is the sum of sign * omega[m2] * psi[m3] over the group's
    (m2, m3, sign).  The groups hold the 60 disjoint pairs of a 2-mask and
    a 3-mask, 10 per target, each with the sign of merging the two."""
    groups = {}
    for m2 in range(1 << 6):
        for m3 in range(1 << 6):
            if m2.bit_count() == 2 and m3.bit_count() == 3 and not m2 & m3:
                groups.setdefault(m2 | m3, []).append((m2, m3, merge_sign(m2, m3)))
    return tuple(tuple(pairs) for _, pairs in sorted(groups.items()))


def is_primitive_int(omega: Mapping[int, int], psi: Mapping[int, int]) -> bool:
    """True when omega ^ psi = 0; stops at the first nonzero coefficient."""
    om, ps = omega.get, psi.get
    for pairs in _primitivity_table():
        if sum(sign * om(m2, 0) * ps(m3, 0) for m2, m3, sign in pairs):
            return False
    return True


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
    if not is_primitive_int(omega, psi):
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


def uniform_int(getrandbits, low: int, high: int) -> int:
    """A uniform integer in [low, high], drawn as CPython 3.11's
    Random.randint draws it: getrandbits(k) for k the bit length of the
    width, redrawn until it falls below the width.  It gives the values
    randint gives on that version, and the stream rests on getrandbits
    alone."""
    width = high - low + 1
    bits = width.bit_length()
    value = getrandbits(bits)
    while value >= width:
        value = getrandbits(bits)
    return low + value


def sample_fraction(getrandbits) -> tuple:
    """(numerator, denominator) of a random rational: the numerator drawn
    in [-1000, 1000], then the denominator in [1, 12]."""
    return uniform_int(getrandbits, -1000, 1000), uniform_int(getrandbits, 1, 12)


# Draws tried for family parameters that satisfy the domain atoms.
ATOM_SAMPLE_BUDGET = 2000

# The variables the t2_zero slice reads or writes, by name.
_T2_SLICE_VARIABLES = (
    "fam_a", "fam_b", "alpha_12", "alpha_13", "alpha_23", "alpha_24", "alpha_34", "alpha_14"
)


def _write_rational(values: list, common: int, i: int, num: int, den: int) -> int:
    """Set the value at position i of the point (values, common) to
    num / den, den != 0, and return the point's new common denominator,
    to which the other numerators are rescaled in place."""
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


class PairSampler:
    """Draws exact candidate pairs (omega, psi) on one stage context.

    The variables are the free ones (alpha, beta, derivation parameters),
    then the family parameters, each part sorted by name.  A draw is one
    integer point: a list of numerators in that order over one common
    denominator L.  The domain atoms, lambda, psi and omega (and, on the
    t2_zero slice, the coefficients in alpha_14 of the determinant of its
    gauge step) are compiled once into CompiledForm kernels over that list.
    The slice is the one the prose_sample step of the context names.
    A draw does only the work its verdict reads, in this order:

    1. family values, each a numerator in [-1000, 1000] then a denominator
       in [1, 12], in name order, redrawn until every domain atom holds,
       each atom tested by Atom.admits on its kernel value;
    2. the free variables, integers in [-20, 20] in name order, then the
       t2_zero slice if the context has one (a k in [1, 5], and alpha_34
       and alpha_14 written into the point);
    3. the sign of lambda at the point (lambda(c psi) = c^4 lambda(psi),
       so the kernel value, a positive multiple of lambda, has its sign);
    4. omega, evaluated only when lambda < 0, and omega^3 != 0
       (candidate_conditions_int defines a trial);
    5. psi, evaluated only for a trial.

    Every number is drawn by uniform_int from the generator `rng`.
    """

    def __init__(self, context, rng):
        self.atoms = list(context.atoms)
        self.rng = rng
        self.t2_slice = context.step("prose_sample").get("slice") == "t2_zero"
        psi, omega = context.psi, context.omega
        names = psi.variables() | omega.variables()
        self.fam_vars = sorted(v for v in names if v.startswith("fam_"))
        self.free_vars = sorted(v for v in names if not v.startswith("fam_"))
        self.variables = self.free_vars + self.fam_vars
        self.atoms_int = CompiledForm(
            {i: atom.poly for i, atom in enumerate(self.atoms)}, self.fam_vars
        )
        self.lam_int = CompiledForm({0: context.lam}, self.variables)
        self.psi_int = CompiledForm(psi.coeffs, self.variables)
        self.omega_int = CompiledForm(omega.coeffs, self.variables)
        if self.t2_slice:
            *_, det, _ = context.gauge
            parts = {
                sum(e for _, e in mono): coeff
                for mono, coeff in det.collect({"alpha_14"}).items()
            }
            if max(parts, default=0) > 2:
                raise G2CertError("the gauge determinant is not quadratic in alpha_14")
            self.det_int = CompiledForm(parts, self.variables)
            self.slice_at = [self.variables.index(name) for name in _T2_SLICE_VARIABLES]

    def _draw_family(self) -> tuple:
        """(numerators, L): family values over their common denominator L,
        in fam_vars order, that satisfy the domain atoms, drawn at most
        ATOM_SAMPLE_BUDGET times."""
        getrandbits = self.rng.getrandbits
        for _ in range(ATOM_SAMPLE_BUDGET):
            drawn = [sample_fraction(getrandbits) for _ in self.fam_vars]
            common = lcm(*(den for _, den in drawn))
            values = [num * (common // den) for num, den in drawn]
            atom_values = self.atoms_int.kernel(values, common)
            if all(atom.admits(value) for atom, value in zip(self.atoms, atom_values)):
                return values, common
        raise AtomUnsatisfiableAfterBudget(f"no sample satisfied {[str(a) for a in self.atoms]}")

    def _apply_t2_slice(self, values: list, common: int):
        """Move the point onto the zero locus of the gauge determinant, and
        return its new common denominator, or None when the draw misses.

        The determinant is quadratic in alpha_14; rejection sampling cannot
        hit its zero set, so alpha_34 is chosen to make the discriminant a
        perfect square and alpha_14 is set to a rational root.  With
        a = n_a / L and so on, alpha_34 = k^2 a (b + 1) alpha_13 alpha_24 /
        ((a - b) alpha_12).  The coefficients A, B, C of alpha_14^2,
        alpha_14, 1 are evaluated with one common positive scale, which
        leaves the root unchanged.
        """
        a, b, a12, a13, a23, a24, at34, at14 = self.slice_at
        na, nb, n12, n13, n24 = (values[i] for i in (a, b, a12, a13, a24))
        if na == nb or n12 == 0 or n13 == 0 or n24 == 0 or values[a23] == 0:
            return None
        k = uniform_int(self.rng.getrandbits, 1, 5)
        p_num = na * (nb + common) * n13 * n24
        if p_num == 0:
            return None
        common = _write_rational(
            values, common, at34, k * k * p_num, common * common * (na - nb) * n12
        )
        coeffs = self.det_int.evaluate((values, common))
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

    def draw(self):
        """One trial (omega, psi) in integers, or None (rejected by the
        domain atoms, the slice or candidate_conditions_int)."""
        family, common = self._draw_family() if self.fam_vars or self.atoms else ([], 1)
        getrandbits = self.rng.getrandbits
        values = [common * uniform_int(getrandbits, -20, 20) for _ in self.free_vars] + family
        if self.t2_slice:
            common = self._apply_t2_slice(values, common)
            if common is None:
                return None
        point = (values, common)
        lam = self.lam_int.kernel(values, common)[0]
        omega = candidate_conditions_int(lam, lambda: self.omega_int.evaluate(point))
        if omega is None:
            return None
        return omega, self.psi_int.evaluate(point)
