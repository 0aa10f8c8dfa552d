"""Integer fast path for the randomized SU(3) falsifier, and its sampler.

A symbolic form is compiled once, against an ordered list of variables,
into a straight-line Python function (CompiledForm.kernel) generated from
its terms.  Each sample is one integer point, numerators x0, x1, ... over
one common denominator L, and a row's value there is the form's value
times q * L^d, a positive rational: the SU(3) verdict is invariant under
scaling omega and psi by positive rationals.  Rows of a form of degree
HORNER_DEGREE or more are in Horner form, the same integers from fewer
products.  Generated source holds only integer literals, positional
locals and this module's names; row keys and variable names stay in
Python data.  Forms are dicts mapping index bitmasks to Python ints.  The
exterior product, K and h are the ring-generic kernels of forms and
hitchin run over int, and su3_passes_int is the package's one SU(3)
predicate; the tests check it against an independent contraction-based
oracle.

PairSampler generates a context's whole draw as one such function: the
getrandbits calls of drawing every number by uniform_int (the rejection
loop of CPython 3.11's randint), in the same order, and the domain atoms,
lambda, omega and psi inlined as rows.  A draw becomes a trial when it
meets candidate_conditions_int: lambda < 0, read from the sign of its
row, then omega^3 != 0; omega is evaluated only when lambda < 0 and psi
only for a trial, and a trial's omega and psi are their raw row values.
su3_passes_int then tests omega ^ psi = 0 first, from a table of the 60
disjoint pairs of a 2-mask and a 3-mask grouped by their 5-form, and
builds K only for a primitive pair, whose lambda comes from tr(K^2)
alone: the identity K^2 = lambda * Id is not checked per pair, because
hitchin proves it once for the generic 3-form, of which every integer psi
is a specialization.  The top coefficient of omega^3 is read from a table
of the 15 perfect matchings of 1..6.  Both tables are built once.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, groupby, repeat
from math import gcd, isqrt, lcm
from operator import itemgetter
from types import FunctionType
from typing import Callable, Mapping, Sequence

from .errors import AtomUnsatisfiableAfterBudget, G2CertError, MissingVariable
from .forms import KForm, merge_sign
from .hitchin import FULL6, h_matrix, k_matrix
from .linalg import leading_minors_int


# Rows of forms of at least this degree are written in Horner form.
HORNER_DEGREE = 6


def _sum(parts) -> str:
    """Source of the sum of coeff * body over the (coeff, body) parts, an
    empty body standing for 1."""
    pieces = []
    for coeff, body in parts:
        pieces.append(" - " if coeff < 0 else " + ")
        coeff = abs(coeff)
        pieces.append(body if coeff == 1 and body else f"{coeff}*{body}" if body else str(coeff))
    text = "".join(pieces)
    return ("-" if text.startswith(" - ") else "") + text[3:] if text else "0"


def _factored(power: str, parts: list) -> tuple:
    """The (coeff, body) part that is power times the sum of the parts."""
    if len(parts) == 1:
        coeff, body = parts[0]
        return coeff, f"{power}*{body}" if body else power
    return 1, f"{power}*({_sum(parts)})"


def _nest(terms, order, k=0) -> list:
    """(coeff, body) parts summing to the terms (exponents, coeff), each the
    product of coeff and the factors of `order` to its exponents, sorted by
    exponents and agreeing before position k.  The terms are grouped by
    their power of order[k], which is pulled out of each group, and each
    group by the next factor, recursively."""
    first, last = terms[0][0], terms[-1][0]
    power = []
    while k < len(order) and first[k] == last[k]:  # a power all the terms share
        power += [order[k]] * first[k]
        k += 1
    if k == len(order):  # one term: the monomials are distinct
        parts = [(terms[0][1], "")]
    else:
        parts = []
        for exp, group in groupby(terms, key=lambda term: term[0][k]):
            sub = _nest(list(group), order, k + 1)
            parts += [_factored("*".join([order[k]] * exp), sub)] if exp else sub
    return [_factored("*".join(power), parts)] if power else parts


def _rows(coeffs: Mapping, position: Mapping) -> tuple:
    """(scale, degree, rows): each value of `coeffs` as the source of an
    integer expression over x{i}, the numerator of the variable at
    `position` i, and L, their common denominator, whose value is the
    polynomial's value times scale * L^degree.  Each monomial is raised to
    the form's degree by a power of L.  A row of a form of degree
    HORNER_DEGREE or more is in Horner form over its factors, L included,
    ranked by the number of terms they occur in (the greedy scheme of
    Ceberio and Kreinovich, with one ranking per row)."""
    label = {name: f"x{i}" for name, i in position.items()}
    pairs = {pair for poly in coeffs.values() for mono in poly.terms for pair in mono}
    try:
        power = {(name, exp): "*".join([label[name]] * exp) for name, exp in pairs}
    except KeyError as exc:
        raise MissingVariable(exc.args[0]) from None
    scale = lcm(*(coeff.denominator for poly in coeffs.values() for coeff in poly.terms.values()))
    monos = [mono for poly in coeffs.values() for mono in poly.terms]
    degree = max((sum(map(itemgetter(1), mono)) for mono in monos), default=0)
    rows = []
    for poly in coeffs.values():
        terms = [
            (int(coeff * scale), mono, degree - sum(map(itemgetter(1), mono)))
            for mono, coeff in poly.terms.items()
        ]
        if degree < HORNER_DEGREE or not terms:
            rows.append(_sum([
                (coeff, "*".join([*map(power.__getitem__, mono), *["L"] * gap]))
                for coeff, mono, gap in terms
            ]))
            continue
        factors = [{label[n]: e for n, e in mono} | {"L": gap} for _, mono, gap in terms]
        counts = Counter(f for fs in factors for f in fs if fs[f])
        order = sorted(counts, key=counts.__getitem__, reverse=True)
        keyed = [(tuple(map(fs.get, order, repeat(0))), t[0]) for t, fs in zip(terms, factors)]
        rows.append(_sum(_nest(sorted(keyed, key=itemgetter(0), reverse=True), order)))
    return scale, degree, rows


def _compile(lines: list, defaults: tuple = ()) -> Callable:
    """The function whose source is `lines`, a def and its indented body,
    compiled once.  Its globals are this module's, so it reads its helpers
    as the module binds them; `defaults` are those of its last parameters."""
    code = compile("\n    ".join(lines) + "\n", "<g2cert.numeric>", "exec").co_consts[0]
    return FunctionType(code, globals(), None, defaults)


class CompiledForm:
    """A form (or any map key -> Polynomial) compiled for integer evaluation.

    Coefficients are scaled by the lcm q of their denominators, and each
    monomial is raised to the top degree d of the form by a power of the
    common denominator L of a sample, so every coefficient's value times
    q * L^d is an integer.  `kernel(numerators, L)` returns those integers
    as a list, in row order: it is one straight-line function generated from
    the term lists and compiled once, with each row in Horner form when d
    is HORNER_DEGREE or more (exact in integers, so the values are those of
    the flat rows).  Its source holds only integer literals and positional
    locals; the row keys (`keys`) and the variable names stay in Python data.
    """

    def __init__(self, coeffs: Mapping, variables: Sequence[str]):
        position = {name: i for i, name in enumerate(variables)}
        self.scale, self.degree, rows = _rows(coeffs, position)
        self.keys = list(coeffs)
        unpack = [f"{''.join(f'x{i}, ' for i in range(len(variables)))}= n"] if variables else []
        self.kernel = _compile(["def kernel(n, L):", *unpack, f"return [{', '.join(rows)}]"])


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
    """Evaluate coefficients and clear denominators (positive scaling): the
    nonzero values, divided by the gcd of them and scale * L^degree."""
    variables = sorted(form.variables())
    compiled = CompiledForm(form.coeffs, variables)
    numerators, common = integer_point(variables, assignment)
    values = compiled.kernel(numerators, common)
    divisor = gcd(compiled.scale * common**compiled.degree, *values)
    return {key: value // divisor for key, value in zip(compiled.keys, values) if value}


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
    then the family parameters, each part sorted by name, and a draw is one
    integer point over them.  The whole draw is generated at construction
    as one function of getrandbits (_source), which `draw` calls once per
    attempt.  It does only the work its verdict reads, in this order:

    1. family values, each a numerator in [-1000, 1000] then a denominator
       in [1, 12], in name order, redrawn until every domain atom holds,
       each atom tested by Atom.admits on its row's value;
    2. the free variables, integers in [-20, 20] in name order, then the
       t2_zero slice if the prose_sample step names it (a k in [1, 5], and
       alpha_34 and alpha_14 written into the point; det_int holds the
       coefficients in alpha_14 of the determinant of its gauge step);
    3. the sign of lambda at the point (lambda(c psi) = c^4 lambda(psi),
       so its row, a positive multiple of lambda, has its sign);
    4. omega, evaluated only when lambda < 0, and omega^3 != 0
       (candidate_conditions_int defines a trial);
    5. psi, evaluated only for a trial.

    Every number is drawn with the getrandbits calls of uniform_int, in this
    order, so the stream is that of drawing each by uniform_int.  A trial's
    omega and psi are raw row values: the form's value times one positive
    rational, which leaves the verdict of su3_passes_int unchanged.
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
        if self.t2_slice:
            *_, det, _ = context.gauge
            parts = {sum(e for _, e in m): c for m, c in det.collect({"alpha_14"}).items()}
            if max(parts, default=0) > 2:
                raise G2CertError("the gauge determinant is not quadratic in alpha_14")
            self.det_int = CompiledForm(parts, self.variables)
            self.slice_at = [self.variables.index(name) for name in _T2_SLICE_VARIABLES]
        defaults = (
            list(omega.coeffs), list(psi.coeffs), self._apply_t2_slice,
            lambda: AtomUnsatisfiableAfterBudget(f"no sample satisfied {[*map(str, self.atoms)]}"),
            *(atom.admits for atom in self.atoms),
        )
        self._draw = _compile(self._source(context.lam, omega, psi), defaults)

    def _source(self, lam, omega, psi) -> list:
        """The lines of the generated draw: steps 1 to 5 of the class
        docstring, each uniform_int inlined as its getrandbits loop, and a
        lambda >= 0 rejected before omega is evaluated, as
        candidate_conditions_int would reject it."""
        free, size = len(self.free_vars), len(self.variables)
        position = {name: i for i, name in enumerate(self.variables)}
        fam = range(free, size)
        family = [line for i in fam for line in (
            "r = getrandbits(11)", "while r >= 2001:", "    r = getrandbits(11)",
            "d = getrandbits(4)", "while d >= 12:", "    d = getrandbits(4)",
            f"x{i} = r - 1000", f"d{i} = d + 1",
        )]
        family.append(f"L = lcm({', '.join(f'd{i}' for i in fam)})")
        family += [f"x{i} *= L // d{i}" for i in fam]
        admits = "".join(f", a{j}" for j in range(len(self.atoms)))
        lines = [f"def draw(getrandbits, okeys, pkeys, slice_, unsatisfied{admits}):"]
        if self.atoms:
            atoms = {j: atom.poly for j, atom in enumerate(self.atoms)}
            _, _, rows = _rows(atoms, {v: position[v] for v in self.fam_vars})
            test = " and ".join(f"a{j}({row})" for j, row in enumerate(rows))
            body = family + [f"if {test}:", "    break"]
            lines += ["for _ in range(ATOM_SAMPLE_BUDGET):", *("    " + line for line in body)]
            lines += ["else:", "    raise unsatisfied()"]
        else:
            lines += family
        lines += [
            f"v = [0] * {free}", f"for i in range({free}):", "    r = getrandbits(6)",
            "    while r >= 41:", "        r = getrandbits(6)", "    v[i] = (r - 20) * L",
        ]
        if self.t2_slice:
            lines.append(f"v += [{', '.join(f'x{i}' for i in fam)}]")
            lines += ["L = slice_(v, L)", "if L is None:", "    return None"]
            free = size
        if free:
            lines.append(f"{''.join(f'x{i}, ' for i in range(free))}= v")
        (lam_row,), omega_rows, psi_rows = (
            _rows(coeffs, position)[2] for coeffs in ({0: lam}, omega.coeffs, psi.coeffs)
        )
        return lines + [
            f"lam = {lam_row}", "if lam >= 0:", "    return None",
            f"rows = dict(zip(okeys, [{', '.join(omega_rows)}]))",
            "omega = candidate_conditions_int(lam, lambda: rows)",
            "if omega is None:", "    return None",
            f"return omega, dict(zip(pkeys, [{', '.join(psi_rows)}]))",
        ]

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
        coeffs = dict(zip(self.det_int.keys, self.det_int.kernel(values, common)))
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
        return self._draw(self.rng.getrandbits)
