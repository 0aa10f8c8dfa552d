"""Exterior algebra: wedge, contraction, pullback, top coefficient."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P
from g2cert.errors import DegreeMismatch, DegreeZero, DimensionMismatch
from g2cert.forms import (
    KForm,
    antiderivation,
    contractions,
    generic_two_form,
    indices_of,
    merge_sign,
    pullback,
    top_coefficient,
    wedge,
    wedge_coeffs,
)
from g2cert.linalg import det_fraction
from g2cert.poly import Polynomial
from oracles import basis_form, basis_vectors, eval_form, form_from_terms, wedge_eval


def random_form(rng, dim, degree, nterms=3):
    coeffs = {}
    for _ in range(nterms):
        idx = tuple(sorted(rng.sample(range(1, dim + 1), degree)))
        mask = sum(1 << (i - 1) for i in idx)
        coeffs[mask] = Polynomial.const(Fraction(rng.randint(-5, 5)))
    return KForm(dim, degree, coeffs)


@st.composite
def polynomial_forms(draw, degree, rational=True):
    """A form of the given degree on dimension 6 whose coefficients are
    polynomials in u and v of degree up to 2 (integer coefficients unless
    rational)."""
    masks = [m for m in range(1 << 6) if m.bit_count() == degree]
    coeffs = {}
    for mask in draw(st.lists(st.sampled_from(masks), max_size=4, unique=True)):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
            mono = tuple((name, e) for name, e in zip(("u", "v"), exps) if e)
            den = draw(st.integers(1, 3)) if rational else 1
            terms[mono] = Fraction(draw(st.integers(-3, 3)), den)
        coeffs[mask] = Polynomial(terms)
    return KForm(6, degree, coeffs)


@st.composite
def degrees_up_to_six(draw, count):
    degrees = []
    for _ in range(count):
        degrees.append(draw(st.integers(0, 6 - sum(degrees))))
    return degrees


class TestWedgeProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_associativity(self, data):
        a, b, c = (data.draw(polynomial_forms(d)) for d in data.draw(degrees_up_to_six(3)))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(-4, 4), st.integers(-4, 4))
    def test_int_dicts_match_polynomial_wedge(self, data, u, v):
        # the one exterior-product loop on int coefficients, as the sampler
        # runs it, against the KForm wedge evaluated afterwards
        degrees = data.draw(degrees_up_to_six(2))
        a, b = (data.draw(polynomial_forms(d, rational=False)) for d in degrees)
        point = {"u": u, "v": v}

        def at_point(form):
            return {m: int(c.evaluate(point)) for m, c in form.coeffs.items()}

        expected = {m: int(c.constant_value()) for m, c in wedge(a, b).substitute(point).coeffs.items()}
        assert wedge_coeffs(at_point(a), at_point(b)) == expected


class TestAntiderivation:
    """The kernel behind d and D*: images of degree p give a map of degree
    p - 1 with D(f ^ g) = Df ^ g + (-1)^((p - 1) deg f) f ^ Dg."""

    @staticmethod
    def apply(images, degree, f):
        return KForm(6, f.degree + degree - 1, antiderivation(images, f.coeffs))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([1, 2]))
    def test_graded_leibniz_rule(self, data, degree):
        images = [data.draw(polynomial_forms(degree)).coeffs for _ in range(6)]
        df, dg = data.draw(degrees_up_to_six(2))
        f, g = data.draw(polynomial_forms(df)), data.draw(polynomial_forms(dg))
        lhs = self.apply(images, degree, wedge(f, g))
        first = wedge(self.apply(images, degree, f), g)
        second = wedge(f, self.apply(images, degree, g))
        if (degree - 1) * df % 2:
            second = -second
        assert lhs == first + second

    def test_images_of_the_basis_one_forms(self):
        images = [basis_form(4, (i % 4 + 1,)).coeffs for i in range(4)]
        for i in range(1, 5):
            assert KForm(4, 1, antiderivation(images, basis_form(4, (i,)).coeffs)) == KForm(
                4, 1, images[i - 1]
            )


class TestWedge:
    def test_square_of_covector_vanishes(self):
        e1 = basis_form(4, (1,))
        assert wedge(e1, e1).is_zero()

    def test_antisymmetry_of_covectors(self):
        e1, e2 = basis_form(4, (1,)), basis_form(4, (2,))
        assert wedge(e1, e2) == basis_form(4, (1, 2))
        assert wedge(e2, e1) == -basis_form(4, (1, 2))

    def test_square_of_symplectic_form(self):
        # oracle: expansion over index pairs gives 2 e1234
        f = basis_form(4, (1, 2)) + basis_form(4, (3, 4))
        assert wedge(f, f) == 2 * basis_form(4, (1, 2, 3, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wedge(basis_form(4, (1,)), basis_form(5, (1,)))

    def test_graded_commutativity_random(self):
        rng = random.Random(11)
        for da in (1, 2, 3):
            for db in (1, 2, 3):
                for _ in range(200):
                    a = random_form(rng, 6, da)
                    b = random_form(rng, 6, db)
                    left = wedge(a, b)
                    right = wedge(b, a)
                    if (da * db) % 2:
                        right = -right
                    assert left == right

    def test_wedge_matches_multilinear_oracle(self):
        rng = random.Random(23)
        basis = basis_vectors(5)
        for _ in range(20):
            a = random_form(rng, 5, 2)
            b = random_form(rng, 5, 3)
            product = wedge(a, b)
            assert eval_form(product, basis) == wedge_eval([a, b], basis)


def interior(v, f):
    """iota_v f = sum_i v_i iota_{e_i} f."""
    return sum((c * iota for c, iota in zip(v, contractions(f))), KForm(f.dim, f.degree - 1))


class TestContract:
    def test_basis_contraction(self):
        assert contractions(basis_form(3, (1, 2, 3)))[0] == basis_form(3, (2, 3))

    def test_missing_index_contracts_to_zero(self):
        assert contractions(basis_form(4, (1, 2, 3)))[3].is_zero()

    def test_linearity(self):
        f = basis_form(3, (1, 2))
        assert interior((1, 1, 0), f) == basis_form(3, (2,)) - basis_form(3, (1,))

    def test_double_contraction_vanishes(self):
        rng = random.Random(5)
        for _ in range(50):
            f = random_form(rng, 6, 3)
            v = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
            assert interior(v, interior(v, f)).is_zero()

    def test_leibniz_rule_random(self):
        rng = random.Random(17)
        for da in (1, 2):
            for db in (1, 2, 3):
                for _ in range(200):
                    a = random_form(rng, 6, da)
                    b = random_form(rng, 6, db)
                    v = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
                    lhs = interior(v, wedge(a, b))
                    rhs = wedge(interior(v, a), b)
                    second = wedge(a, interior(v, b))
                    rhs = rhs + (second if da % 2 == 0 else -second)
                    assert lhs == rhs

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeZero):
            contractions(KForm(3, 0, {0: Polynomial.const(1)}))


class TestPullback:
    def test_identity(self):
        f = generic_two_form(4)
        identity = [[Polynomial.const(1 if i == j else 0) for j in range(4)] for i in range(4)]
        assert pullback(identity, f) == f

    def test_diagonal_scaling(self):
        f = basis_form(4, (1, 2))
        diag = [[Polynomial.const(0)] * 4 for _ in range(4)]
        for i in range(4):
            diag[i][i] = Polynomial.const(2 if i == 0 else 1)
        assert pullback(diag, f) == 2 * f

    def test_exp_s_reproduces_printed_coefficient(self):
        # F = exp(S) with the four-parameter nilpotent gauge of the double
        # g_{3,4}: the e136 coefficient of F*psi is -(a14 s3 + a15 s4 + a16)
        psi = form_from_terms(
            6,
            3,
            {
                (1, 3, 4): P("-alpha_14"),
                (1, 3, 5): P("-alpha_15"),
                (1, 3, 6): P("-alpha_16"),
                (1, 4, 6): P("alpha_14"),
                (1, 5, 6): P("-alpha_15"),
                (2, 3, 4): P("alpha_24"),
                (2, 3, 5): P("alpha_25"),
                (2, 3, 6): P("alpha_26"),
                (2, 4, 6): P("alpha_24"),
                (2, 5, 6): P("-alpha_25"),
                (3, 4, 6): P("alpha_34"),
                (3, 5, 6): P("-alpha_35"),
            },
        )
        F = [[Polynomial.const(1 if i == j else 0) for j in range(6)] for i in range(6)]
        F[0][2] = P("s_1")
        F[1][2] = P("s_2")
        F[3][5] = P("s_3")
        F[4][5] = P("s_4")
        pulled = pullback(F, psi)
        assert pulled.coefficient((1, 3, 6)) == P("-(alpha_14*s_3 + alpha_15*s_4 + alpha_16)")

    def test_functoriality(self):
        rng = random.Random(2)
        for _ in range(20):
            f = random_form(rng, 4, 2)
            m1 = [[Polynomial.const(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            m2 = [[Polynomial.const(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            composed = [
                [
                    sum((m1[i][k] * m2[k][j] for k in range(4)), Polynomial.zero())
                    for j in range(4)
                ]
                for i in range(4)
            ]
            assert pullback(composed, f) == pullback(m2, pullback(m1, f))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_multiplicative(self, data):
        # F*(f ^ g) = F*f ^ F*g for a polynomial matrix F
        entries = st.integers(-2, 2).map(Polynomial.const) | st.sampled_from(
            [P("u"), P("v"), P("u - 2*v"), P("u*v + 1")]
        )
        matrix = [[data.draw(entries) for _ in range(6)] for _ in range(6)]
        f, g = (data.draw(polynomial_forms(d)) for d in data.draw(degrees_up_to_six(2)))
        assert pullback(matrix, wedge(f, g)) == wedge(pullback(matrix, f), pullback(matrix, g))

    def test_determinant_scaling_of_volume(self):
        rng = random.Random(9)
        vol = basis_form(4, (1, 2, 3, 4))
        for _ in range(30):
            entries = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            matrix = [[Polynomial.const(x) for x in row] for row in entries]
            pulled = pullback(matrix, vol)
            assert top_coefficient(pulled).constant_value() == det_fraction(entries)


def test_merge_sign_matches_inversion_count():
    # every ordered pair of disjoint masks on dimension up to 7
    for mask_a in range(1 << 7):
        for mask_b in range(1 << 7):
            if mask_a & mask_b:
                continue
            order = indices_of(mask_a) + indices_of(mask_b)
            inversions = sum(1 for i, x in enumerate(order) for y in order[i + 1 :] if x > y)
            assert merge_sign(mask_a, mask_b) == (-1) ** inversions, (mask_a, mask_b)


class TestTopCoefficient:
    def test_unit_volume(self):
        assert top_coefficient(basis_form(6, (1, 2, 3, 4, 5, 6))) == Polynomial.const(1)

    def test_scaled_volume(self):
        assert top_coefficient(2 * basis_form(6, (1, 2, 3, 4, 5, 6))) == Polynomial.const(2)

    def test_omega_cubed_nondegenerate(self):
        # oracle: direct wedge of three copies
        omega = form_from_terms(6, 2, {(1, 2): 1, (3, 4): 1, (5, 6): 1})
        cubed = wedge(wedge(omega, omega), omega)
        assert top_coefficient(cubed) == Polynomial.const(6)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            top_coefficient(basis_form(6, (1, 2)))
