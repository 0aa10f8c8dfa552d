"""The integer sampler against independent references: its compiled form
evaluation against Polynomial.evaluate, the shared K kernel over int
against the permutation-expansion oracle, the omega^3 table against two
full exterior products, the primitivity table against wedge_coeffs,
Bareiss minors against det_fraction, su3_passes_int against the
contraction-based SU(3) oracle in oracles.py, and uniform_int against
Random.randint."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2cert.forms import KForm, pullback, wedge_coeffs
from g2cert.hitchin import h_matrix, k_matrix, k_psi
from g2cert.linalg import det_fraction, leading_minors_int
from g2cert.numeric import (
    CompiledForm,
    candidate_conditions_int,
    eval_form_int,
    integer_point,
    is_primitive_int,
    omega_cubed_int,
    su3_passes_int,
    uniform_int,
)
from g2cert.poly import Polynomial
from oracles import (
    SU3Verdict,
    basis_form,
    flat_kernel,
    form_from_terms,
    oracle_k_entry,
    oracle_omega_cubed,
    standard_su3_pair,
    su3_check,
)

NAMES = ("u", "v", "w")
SMALL = st.integers(-2, 2)
RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 5))


def reference_eval(form: KForm, assignment) -> dict:
    """Polynomial.evaluate on each coefficient, then clear denominators."""
    values = {}
    denominators = 1
    for mask, coeff in form.coeffs.items():
        value = coeff.evaluate(assignment)
        if value:
            values[mask] = value
            denominators = lcm(denominators, value.denominator)
    return {mask: int(v * denominators) for mask, v in values.items()}


def masks_of_degree(degree):
    return [m for m in range(1 << 6) if m.bit_count() == degree]


@st.composite
def rational_forms(draw):
    """A KForm on dimension 6 whose coefficients are polynomials of degree
    up to 4 in u, v, w with small rational (possibly zero) coefficients."""
    degree = draw(st.integers(0, 3))
    masks = draw(st.lists(st.sampled_from(masks_of_degree(degree)), max_size=6, unique=True))
    coeffs = {}
    for mask in masks:
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            exps = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
            mono = tuple((name, e) for name, e in zip(NAMES, exps) if e)
            terms[mono] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        coeffs[mask] = Polynomial(terms)
    return KForm(6, degree, coeffs)


@st.composite
def horner_rows(draw):
    """A polynomial of degree up to 8 in u, v, w with rational coefficients,
    its terms of any degree below the top."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        exps = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(
            lambda exps: sum(exps) <= 8
        ))
        mono = tuple((name, e) for name, e in zip(NAMES, exps) if e)
        terms[mono] = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 6)))
    return Polynomial(terms)


U, V, W = (Polynomial.var(name) for name in NAMES)
AT_THIRDS = {"u": Fraction(1, 3), "v": Fraction(-2, 3), "w": Fraction(5, 6)}


class TestCompiledForm:
    @settings(max_examples=300, deadline=None)
    @given(rational_forms(), st.fixed_dictionaries({name: RATIONALS for name in NAMES}))
    # a constant (degree-0) form
    @example(KForm(6, 2, {0b11: Polynomial.const(Fraction(-3, 4)), 0b101: 2}), AT_THIRDS)
    # a variable repeated in a monomial, and terms of every gap up to the
    # degree 4 at a common denominator L = 6
    @example(
        KForm(6, 1, {0b1: U**4 - U * U * V * Fraction(1, 2) + U, 0b10: V * V * W + 7, 0b100: W * W}),
        AT_THIRDS,
    )
    # a form in one variable of the three
    @example(KForm(6, 3, {0b111: W * W * Fraction(1, 3) - W, 0b1011: W + Fraction(1, 2)}), AT_THIRDS)
    def test_matches_fraction_evaluation(self, form, assignment):
        expected = reference_eval(form, assignment)
        assert eval_form_int(form, assignment) == expected
        # compiled against a longer variable list, as the sampler does, and
        # with one more row that is the zero polynomial: the kernel's values
        # are one positive multiple of the cleared values
        variables = ["a_1", *NAMES, "z"]
        point = integer_point(variables, {**assignment, "a_1": Fraction(1, 7), "z": 3})
        compiled = CompiledForm({**form.coeffs, "zero": Polynomial.zero()}, variables)
        values = dict(zip(compiled.keys, compiled.kernel(*point)))
        assert values.pop("zero") == 0
        assert {key for key, value in values.items() if value} == set(expected)
        ratios = {Fraction(values[key], value) for key, value in expected.items()}
        assert len(ratios) <= 1 and all(ratio > 0 for ratio in ratios)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(horner_rows(), min_size=1, max_size=4),
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        st.integers(2, 12),
    )
    # a row of degree 8 with terms of every lower degree and a shared factor
    @example(
        [U**3 * V**3 * W * W - U**3 * V * V + U * V * Fraction(5, 2) - 7 + U**3 * V**3 * W],
        [2, -3, 5, 1],
        6,
    )
    def test_kernel_matches_the_flat_terms(self, polys, numerators, common):
        # with a zero row and a constant row, rows of degree HORNER_DEGREE
        # or more in Horner form must give the term-by-term values
        coeffs = {i: poly for i, poly in enumerate(polys)}
        coeffs.update(zero=Polynomial.zero(), constant=Polynomial.const(Fraction(-3, 4)))
        variables = ["a_1", *NAMES]
        kernel = CompiledForm(coeffs, variables).kernel(numerators, common)
        assert kernel == flat_kernel(coeffs, variables, numerators, common)

    def test_zero_form_and_zero_values(self):
        assert eval_form_int(KForm(6, 2), {}) == {}
        u = Polynomial.var("u")
        form = KForm(6, 2, {0b11: u * Fraction(1, 2), 0b101: u - 1})
        assert eval_form_int(form, {"u": Fraction(0)}) == {0b101: -1}
        assert eval_form_int(form, {"u": Fraction(1)}) == {0b11: 1}
        assert eval_form_int(form, {"u": Fraction(4, 3)}) == {0b11: 2, 0b101: 1}


@st.composite
def integer_three_forms(draw):
    return {mask: draw(st.integers(-3, 3)) for mask in masks_of_degree(3)}


class TestKMatrix:
    @settings(max_examples=50, deadline=None)
    @given(integer_three_forms())
    def test_table_matches_k_psi(self, psi):
        # the table over int and k_psi over Polynomial, each against the
        # permutation expansion
        form = KForm(6, 3, psi)
        expected = [[oracle_k_entry(form, i, j) for i in range(1, 7)] for j in range(1, 7)]
        entries, trace_sq = k_matrix(psi, 0)
        assert entries == expected
        assert trace_sq == sum(expected[i][l] * expected[l][i] for i in range(6) for l in range(6))
        k = k_psi(form)
        assert [[e.constant_value() for e in row] for row in k.entries] == expected
        assert 6 * k.lam.constant_value() == trace_sq

    def test_table_exhaustive_on_unit_forms(self):
        # K is quadratic in psi, so the 20 forms e^a and the 190 forms
        # e^a + e^b fix every coefficient of the table
        for count in (1, 2):
            for masks in combinations(masks_of_degree(3), count):
                psi = {mask: 1 for mask in masks}
                form = KForm(6, 3, psi)
                expected = [[oracle_k_entry(form, i, j) for i in range(1, 7)] for j in range(1, 7)]
                assert k_matrix(psi, 0)[0] == expected, masks


class TestOmegaCubed:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(masks_of_degree(2)), st.integers(-3, 3), max_size=15))
    def test_table_matches_double_wedge(self, omega):
        # the dictionaries may hold zero coefficients
        assert omega_cubed_int(omega) == oracle_omega_cubed(omega)

    def test_standard_form(self):
        assert omega_cubed_int({0b11: 1, 0b1100: 1, 0b110000: 1}) == 6
        assert omega_cubed_int({0b11: 1, 0b1100: 1, 0b110000: 0}) == 0


class TestCandidateConditions:
    def test_omega_is_evaluated_only_when_lambda_is_negative(self):
        omega0, psi0 = standard_su3_pair()
        omega, psi = eval_form_int(omega0, {}), eval_form_int(psi0, {})

        def unreachable():
            raise AssertionError("omega evaluated although lambda >= 0")

        # lambda(psi) = 0 for psi = 0 and for e^123, and lambda > 0 for the
        # split form e^123 + e^456; the sign is all the conditions read
        zero, single, split = ({}, {0b111: 1}, {0b111: 1, 0b111000: 1})
        assert k_matrix(zero, 0)[1] == k_matrix(single, 0)[1] == 0 < k_matrix(split, 0)[1]
        for lam_psi in (zero, single, split):
            assert candidate_conditions_int(k_matrix(lam_psi, 0)[1], unreachable) is None
        trace_sq = k_matrix(psi, 0)[1]
        assert trace_sq < 0
        assert candidate_conditions_int(trace_sq, lambda: omega) == omega
        assert candidate_conditions_int(-1, lambda: omega) == omega
        # omega^3 = 0 rejects
        assert candidate_conditions_int(trace_sq, lambda: {0b11: 1}) is None


@st.composite
def wedge_pairs(draw):
    """(omega, psi) as int dicts that may hold zero entries: two random
    forms, or the standard SU(3) pair pulled back by one integer matrix
    (a primitive pair), with one coefficient of psi then maybe changed."""
    if draw(st.booleans()):
        omega = draw(st.dictionaries(st.sampled_from(masks_of_degree(2)), SMALL, max_size=15))
        psi = draw(st.dictionaries(st.sampled_from(masks_of_degree(3)), SMALL, max_size=20))
        return omega, psi
    omega0, psi0 = standard_su3_pair()
    matrix = [[Polynomial.const(draw(SMALL)) for _ in range(6)] for _ in range(6)]
    omega = dict.fromkeys(masks_of_degree(2), 0) | eval_form_int(pullback(matrix, omega0), {})
    psi = eval_form_int(pullback(matrix, psi0), {})
    if draw(st.booleans()):
        psi[draw(st.sampled_from(masks_of_degree(3)))] = draw(SMALL)
    return omega, psi


def standard_pair_int(extra=None):
    """The standard SU(3) pair as int dicts, with omega plus `extra`."""
    omega0, psi0 = standard_su3_pair()
    return eval_form_int(omega0, {}) | (extra or {}), eval_form_int(psi0, {})


class TestPrimitivity:
    @settings(max_examples=300, deadline=None)
    @given(wedge_pairs())
    @example(standard_pair_int())
    # e13 wedges with the -e245 of psi to a nonzero 5-form
    @example(standard_pair_int({0b101: 1}))
    def test_table_matches_wedge_coeffs(self, pair):
        omega, psi = pair
        assert is_primitive_int(omega, psi) == (wedge_coeffs(omega, psi) == {})


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices; zero corner entries and a repeated
    leading row make singular leading blocks common."""
    n = draw(st.integers(1, 6))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    if n > 1 and draw(st.booleans()):
        m[1] = list(m[0])
        for i in range(n):
            m[i][1] = m[i][0]
    return m


class TestLeadingMinors:
    @settings(max_examples=300, deadline=None)
    @given(symmetric_matrices())
    def test_bareiss_matches_det_fraction(self, matrix):
        minors = leading_minors_int(matrix)
        expected = [
            det_fraction([row[: k + 1] for row in matrix[: k + 1]]) for k in range(len(matrix))
        ]
        assert minors == expected[: len(minors)]
        assert len(minors) == len(matrix) or minors[-1] == 0


@st.composite
def integer_pairs(draw):
    """(omega, psi) as constant KForms: a pullback of e12 +- e34 +- e56 and
    of +-Re(dz1 dz2 dz3) by one integer matrix, or with psi or omega (or
    both) replaced by a random integer form."""
    _, psi0 = standard_su3_pair()
    signs = [draw(st.sampled_from([1, -1])) for _ in range(3)]
    omega = form_from_terms(6, 2, {(1, 2): signs[0], (3, 4): signs[1], (5, 6): signs[2]})
    psi = psi0 * draw(st.sampled_from([1, -1]))
    matrix = [[Polynomial.const(draw(SMALL)) for _ in range(6)] for _ in range(6)]
    omega, psi = pullback(matrix, omega), pullback(matrix, psi)
    if draw(st.booleans()):
        psi = KForm(6, 3, {m: draw(SMALL) for m in masks_of_degree(3)})
    if draw(st.booleans()):
        omega = KForm(6, 2, {m: draw(SMALL) for m in masks_of_degree(2)})
    return omega, psi


class TestSU3Predicate:
    @settings(max_examples=60, deadline=None)
    @given(integer_pairs())
    def test_matches_su3_check(self, pair):
        omega, psi = pair
        exact = su3_check(omega, psi) == SU3Verdict.PASSES
        assert su3_passes_int(eval_form_int(omega, {}), eval_form_int(psi, {})) == exact

    def test_primitivity_decides_an_alternating_non_symmetric_h(self):
        # omega ^ psi != 0, so h is not symmetric, yet its leading minors
        # -8, 64, -512, ... alternate: only the omega ^ psi test rejects it
        omega0, psi0 = standard_su3_pair()
        omega = eval_form_int(omega0 * 4 + basis_form(6, (1, 3)), {})
        psi = eval_form_int(psi0, {})
        k, trace_sq = k_matrix(psi, 0)
        h = h_matrix(omega, k, 0)
        assert trace_sq < 0 and any(h[i][j] != h[j][i] for i in range(6) for j in range(6))
        minors = leading_minors_int(h)
        assert minors[:3] == [-8, 64, -512]
        assert all((m < 0) == (i % 2 == 0) for i, m in enumerate(minors))
        assert not su3_passes_int(omega, psi)


# every range the package draws from: the sampler's free variables, the two
# parts of a family value, the t2_zero slice's k, and the lambda stage; and
# a width of 8, a power of two, where the bit count of width - 1 falls short
DRAW_RANGES = [(-20, 20), (-1000, 1000), (1, 12), (1, 5), (-9, 9), (-4, 3)]


@pytest.mark.parametrize("low, high", DRAW_RANGES)
def test_uniform_int_draws_what_randint_draws(low, high):
    for seed in range(50):
        ours, twin = random.Random(seed), random.Random(seed)
        draws = [uniform_int(ours.getrandbits, low, high) for _ in range(200)]
        assert draws == [twin.randint(low, high) for _ in range(200)], seed
        assert ours.getstate() == twin.getstate()
