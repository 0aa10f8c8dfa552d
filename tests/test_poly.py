"""Exact scalar arithmetic: polynomials, witnesses, symbolic linear
systems, and the rational functions of the test oracles."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import P
from oracles import (
    RationalFunction,
    as_polynomial,
    oracle_expand_witness,
    oracle_det,
    oracle_mul,
    oracle_substitute_cramer,
    substitute_rational,
)
from g2cert.catalog import expand_witness
from g2cert.errors import ExpansionMismatch, MissingVariable, SingularSymbolicSystem
from g2cert.exprs import MAX_DEPTH
from g2cert.linalg import det_fraction
from g2cert.poly import (
    Polynomial,
    check_nonneg_witness,
    solve_linear,
    substitute_cramer,
)


class TestRingOps:
    def test_additive_inverse(self):
        x = Polynomial.var("x")
        assert (x + (-x)).is_zero()

    def test_monomial_product_from_lambda_table(self):
        # 4 a14^2 a24^2 is the product of a14 a24 and 4 a14 a24
        assert P("alpha_14*alpha_24") * P("4*alpha_14*alpha_24") == P("4*alpha_14^2*alpha_24^2")

    def test_schoolbook_square(self):
        # oracle: term-by-term expansion of (x + y)^2
        x, y = Polynomial.var("x"), Polynomial.var("y")
        expanded = x * x + x * y + y * x + y * y
        assert (x + y) ** 2 == expanded
        assert (x + y) ** 2 == P("x^2 + 2*x*y + y^2")

    @pytest.mark.parametrize("e", range(1, 9))
    def test_power_squares_only_while_bits_remain(self, e, monkeypatch):
        mul = Polynomial.__mul__
        p = P("x + 2*y - 1")
        expected = p
        for _ in range(e - 1):
            expected = mul(expected, p)
        products = []

        def counting_mul(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
        assert p ** e == expected
        assert len(products) <= e.bit_length() - 1 + bin(e).count("1")

    def test_rational_coefficients_are_exact(self):
        p = P("2/3*x") + P("1/3*x")
        assert p == P("x")

    def test_power_and_content(self):
        p = P("6*x^2 - 4*x*y")
        assert p.content() == Fraction(2)
        assert (p * Fraction(1, 2)) == P("3*x^2 - 2*x*y")

    def test_random_ring_homomorphism(self):
        # evaluate(a*b) = evaluate(a)*evaluate(b), evaluate(a+b) likewise
        rng = random.Random(7)
        names = ["x", "y", "z"]

        def random_poly():
            terms = {}
            for _ in range(rng.randint(1, 5)):
                mono = tuple(
                    sorted((n, rng.randint(1, 3)) for n in rng.sample(names, rng.randint(0, 2)))
                )
                terms[mono] = terms.get(mono, Fraction(0)) + Fraction(
                    rng.randint(-6, 6), rng.randint(1, 4)
                )
            return Polynomial(terms)

        for _ in range(1000):
            a, b = random_poly(), random_poly()
            point = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for n in names}
            assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
            assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


@st.composite
def polynomials(draw, names=("x", "y", "z"), max_exp=2, max_terms=4):
    """Small polynomials with rational coefficients, the zero one included."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.lists(st.integers(0, max_exp), min_size=len(names), max_size=len(names)))
        mono = tuple((name, e) for name, e in zip(names, exps) if e)
        terms[mono] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return Polynomial(terms)


RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


class TestRingLaws:
    @settings(max_examples=150, deadline=None)
    @given(polynomials(), polynomials(), polynomials())
    def test_ring_axioms(self, p, q, r):
        zero, one = Polynomial.zero(), Polynomial.const(1)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert p + q == q + p and p * q == q * p
        assert p + zero == p and p * one == p and (p * zero).is_zero()
        assert (p - p).is_zero() and p + (-p) == zero

    @settings(max_examples=100, deadline=None)
    @given(polynomials())
    def test_int_operands(self, p):
        # the ring-generic kernels start sums at int 0 and scale by ints
        assert 0 + p == p and p + 0 == p
        assert sum([p, p, p]) == p * 3
        assert p * 6 == 6 * p == p + p + p + p + p + p
        assert bool(p) == (not p.is_zero())
        assert bool(p - p) is False

    @settings(max_examples=100, deadline=None)
    @given(
        polynomials(),
        polynomials(names=("u", "z"), max_exp=1, max_terms=3),
        polynomials(names=("u", "v"), max_exp=1, max_terms=3),
        st.fixed_dictionaries({name: RATIONALS for name in ("u", "v", "z")}),
    )
    def test_substitute_then_evaluate_commute(self, p, image_x, image_y, point):
        substituted = p.substitute({"x": image_x, "y": image_y})
        direct = p.evaluate(
            {"x": image_x.evaluate(point), "y": image_y.evaluate(point), "z": point["z"]}
        )
        assert substituted.evaluate(point) == direct

    @settings(max_examples=100, deadline=None)
    @given(
        polynomials(),
        st.one_of(RATIONALS, st.integers(-2, 2)),
        st.one_of(RATIONALS, st.integers(-2, 2)),
        RATIONALS,
    )
    def test_substitute_constant_images(self, p, x, y, z):
        # int and Fraction images, zero included, are constant bases of the
        # Cramer pass
        substituted = p.substitute({"x": x, "y": y})
        assert substituted.variables() <= {"z"}
        assert substituted.evaluate({"z": z}) == p.evaluate({"x": x, "y": y, "z": z})

    @settings(max_examples=100, deadline=None)
    @given(polynomials(), polynomials(names=("u", "v")))
    def test_substitute_absent_names_returns_the_polynomial(self, p, image):
        assert p.substitute({"w": image, "t": Fraction(2), "u": 0}) == p


class TestCollect:
    @settings(max_examples=150, deadline=None)
    @given(polynomials(), st.sets(st.sampled_from(("x", "y", "z", "w"))))
    def test_groups_recombine(self, p, names):
        groups = p.collect(names)
        total = Polynomial.zero()
        for mono, coeff in groups.items():
            assert all(v in names for v, _ in mono)
            assert not coeff.is_zero() and not coeff.variables() & names
            total = total + Polynomial({mono: 1}) * coeff
        assert total == p

    def test_edge_cases(self):
        p = P("x^2*y - 3*y + 1/2")
        assert p.collect(set()) == {(): p}
        assert Polynomial.zero().collect({"x"}) == {}
        assert p.collect({"x"}) == {(("x", 2),): P("y"), (): P("-3*y + 1/2")}


@st.composite
def kernel_operands(draw):
    """Polynomials in a sorted pool of up to four names, exponents up to 9 so
    that degree sums cross powers of two, and with unrelated denominators;
    zero and one-term polynomials included."""
    names = draw(st.sampled_from((("w", "x", "y", "z"), ("a", "b"), ("b", "x"), ("z",))))
    return draw(polynomials(names=names, max_exp=9, max_terms=6))


def assert_canonical(p: Polynomial) -> None:
    """Each stored coefficient has its one representation: an int, or a
    Fraction with denominator > 1; never 0, a bool or a float.  Each
    monomial is name-sorted with positive integer exponents."""
    for mono, coeff in p.terms.items():
        assert (type(coeff) is int and coeff != 0) or (
            type(coeff) is Fraction and coeff.denominator > 1
        )
        assert [v for v, _ in mono] == sorted({v for v, _ in mono})
        assert all(type(e) is int and e > 0 for _, e in mono)


class TestProductKernel:
    """The packed-exponent product against the schoolbook oracle."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_operands(), kernel_operands())
    def test_matches_oracle(self, p, q):
        product, expected = p * q, oracle_mul(p, q)
        assert product.terms == expected.terms
        assert str(product) == str(expected)
        assert_canonical(product)

    @settings(max_examples=150, deadline=None)
    @given(kernel_operands(), kernel_operands())
    def test_cancellation(self, p, q):
        # (p + q)(p - q): the cross terms cancel
        product = (p + q) * (p - q)
        assert product.terms == oracle_mul(p + q, p - q).terms
        assert product == p * p - q * q
        assert_canonical(product)

    @pytest.mark.parametrize("a", [1, 3, 7, 8, 9, 15, 16])
    @pytest.mark.parametrize("b", [1, 8, 9, 16, 17])
    def test_degree_sums_at_field_width_edges(self, a, b):
        p = Polynomial.var("x", a) * P("1/2") + P("y*z") * Polynomial.var("w", a)
        q = Polynomial.var("x", b) - P("2/3*y") * Polynomial.var("z", b)
        product = p * q
        assert product.terms == oracle_mul(p, q).terms
        assert product.terms[(("x", a + b),)] == Fraction(1, 2)
        assert_canonical(product)

    def test_one_term_zero_and_disjoint_operands(self):
        p = P("3/4*x^2*y + 5*y^9 - 1")
        for q in (P("0"), P("7/3"), P("-2*x*z^9"), P("a^9 + 1/5*b")):
            assert (p * q).terms == oracle_mul(p, q).terms == (q * p).terms
            assert_canonical(p * q)
        assert P("x + y") * P("x - y") == P("x^2 - y^2")


class TestStoredScalars:
    """A coefficient is stored as an int where it is integral and as a
    Fraction otherwise, whichever operation formed it; floats and bools are
    refused."""

    @settings(max_examples=150, deadline=None)
    @given(polynomials(), polynomials(), st.one_of(RATIONALS, st.integers(-3, 3)))
    def test_every_operation_stores_one_form(self, p, q, c):
        for r in (
            p + q, p - q, -p, p * q, p * c, c * p, Polynomial.const(c), p**2,
            p.substitute({"x": q, "y": c}), Polynomial.sum([p, q, -p]),
            Polynomial.product([p, Polynomial.const(c), q]),
        ):
            assert_canonical(r)

    def test_integral_results_are_ints(self):
        half = P("1/2*x + 1/2")
        assert (half + half).terms == {(("x", 1),): 1, (): 1}
        for r in (half + half, half * 2, half * P("2*x - 2"), P("2/3*y") * Fraction(3, 2),
                  P("1/2*x") ** 2 * 4, Polynomial.const(Fraction(4, 2)),
                  Polynomial({(("x", 1),): Fraction(6, 3)})):
            assert r.terms and all(type(c) is int for c in r.terms.values()), r

    def test_readers_that_divide_return_fractions(self):
        p = P("4*x + 2")
        assert type(p.leading()[1]) is Fraction
        assert type(p.content()) is Fraction and p.content() == 2
        assert type(P("3").constant_value()) is Fraction
        assert P("3").constant_value() / 2 == Fraction(3, 2)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Polynomial({(): 0.5}),
            lambda: Polynomial.const(0.1),
            lambda: Polynomial.const(True),
            lambda: Polynomial({(("x", 1),): False}),
            lambda: P("x") * True,
            lambda: P("x") + True,
            lambda: P("x") - False,
            lambda: P("x").substitute({"x": 0.5}),
            lambda: P("x") * 0.5,
            lambda: P("x").evaluate({"x": 0.1}),
            lambda: expand_witness(["const", 0.5]),
        ],
        ids=["init-float", "const-float", "const-bool", "init-bool", "mul-bool", "add-bool",
             "sub-bool", "substitute-float", "mul-float", "evaluate-float", "witness-const-float"],
    )
    def test_a_float_or_bool_is_refused(self, make):
        with pytest.raises(TypeError):
            make()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(polynomials(max_terms=3), max_size=5))
    def test_sum_and_product_match_repeated_operations(self, parts):
        total, product = Polynomial.zero(), Polynomial.const(1)
        for part in parts:
            total = total + part
            product = oracle_mul(product, part)
        assert Polynomial.sum(parts).terms == total.terms
        assert Polynomial.product(parts).terms == product.terms

    def test_one_term_factors_merge_into_one_monomial(self, monkeypatch):
        factors = [P("2*x"), P("y^2"), P("1/4"), P("x*z"), P("2")]
        monkeypatch.setattr(Polynomial, "__mul__", None)
        assert Polynomial.product(factors).terms == {(("x", 2), ("y", 2), ("z", 1)): 1}


NON_INTEGERS = st.builds(
    Fraction, st.integers(-7, 7).filter(bool), st.sampled_from((2, 3, 5, 7))
)


@st.composite
def cramer_inputs(draw):
    """(poly, svars, numerators, den): poly of degree up to 3 in s_1..s_n
    (n in 1..3) with coefficients in x and y, numerators in u, x and y and
    a nonzero den in x and y, all with non-integer rational coefficients."""
    n = draw(st.integers(1, 3))
    svars = [f"s_{i}" for i in range(1, n + 1)]

    def draw_poly(names, max_exp, max_terms, s_degree=0):
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            exps = [draw(st.integers(0, max_exp)) for _ in names]
            s_exps = [0] * n
            for _ in range(draw(st.integers(0, s_degree))):
                s_exps[draw(st.integers(0, n - 1))] += 1
            mono = tuple(sorted(
                [(v, e) for v, e in zip(names, exps) if e]
                + [(v, e) for v, e in zip(svars, s_exps) if e]
            ))
            terms[mono] = draw(NON_INTEGERS)
        return Polynomial(terms)

    poly = draw_poly(("x", "y"), 2, 5, s_degree=3)
    numerators = [draw_poly(("u", "x", "y"), 3, 4) for _ in svars]
    den = draw_poly(("x", "y"), 2, 3)
    assume(not den.is_zero())
    return poly, svars, numerators, den


def assert_matches_oracle(poly, svars, numerators, den) -> tuple:
    """substitute_cramer against the schoolbook oracle, term for term; its
    (N, d) is returned."""
    num, degree = substitute_cramer(poly, svars, numerators, den)
    expected, expected_degree = oracle_substitute_cramer(poly, svars, numerators, den)
    assert degree == expected_degree
    assert num.terms == expected.terms
    assert str(num) == str(expected)
    assert_canonical(num)
    return num, degree


class TestCramerPass:
    """The packed Cramer substitution against the schoolbook oracle."""

    @settings(max_examples=200, deadline=None)
    @given(cramer_inputs())
    def test_matches_oracle(self, inputs):
        assert_matches_oracle(*inputs)

    def test_zero_numerator(self):
        poly = P("s_1*s_2 + 2/3*x*s_1 + 1/2")
        den = P("2*x - 1/5")
        num, _ = assert_matches_oracle(poly, ["s_1", "s_2"], [P("0"), P("1/3*x + 1")], den)
        assert num == P("1/2") * den * den

    def test_no_gauge_variable_returns_poly_unchanged(self):
        poly = P("3/4*x^2*y - 1/3")
        num, degree = substitute_cramer(poly, ["s_1"], [P("x + 1/2")], P("y - 1/5"))
        assert num is poly and degree == 0
        assert substitute_cramer(P("0"), ["s_1"], [P("x")], P("y")) == (P("0"), 0)

    @pytest.mark.parametrize(
        "poly, numerators, degree",
        [
            # N_2 s_1 - N_1 s_2 at s = N / den
            ("(1/3*y^2 - x)*s_1 - (x^2*y + 1/2)*s_2", ["x^2*y + 1/2", "1/3*y^2 - x"], 1),
            # s_1^2 = s_2 s_3 when N_1^2 = N_2 N_3
            ("2/5*s_1^2 - 2/5*s_2*s_3", ["1/2*x*y", "1/4*x^2", "y^2"], 2),
        ],
    )
    def test_result_that_cancels(self, poly, numerators, degree):
        svars = [f"s_{i}" for i in range(1, len(numerators) + 1)]
        numerators = [P(n) for n in numerators]
        num, d = assert_matches_oracle(P(poly), svars, numerators, P("x - 3/7*y"))
        assert num.is_zero() and d == degree

    @pytest.mark.parametrize(
        "c, t", [(1, 3), (0, 4), (2, 3), (1, 4), (1, 7), (0, 8), (2, 7), (1, 8), (3, 7)]
    )
    def test_degrees_at_field_width_edges(self, c, t):
        # the top term x^(c + 2t) has the bound cdeg + d * top as its degree
        poly = P("1/2") * Polynomial.var("x", c) * P("s_1^2") + P("3/5*y*s_2")
        numerators = [Polynomial.var("x", t) - P("1/3*y"), P("2/5") * Polynomial.var("y", t)]
        den = Polynomial.var("x", t) + P("1/7")
        num, _ = assert_matches_oracle(poly, ["s_1", "s_2"], numerators, den)
        assert num.terms[(("x", c + 2 * t),)] == Fraction(1, 2)


@st.composite
def cramer_systems(draw):
    """(matrix, rhs, poly): an n x n system, n in 1..3, with entries linear
    in x and y (singular on some draws), and a polynomial in s_1..s_n and
    y."""
    n = draw(st.integers(1, 3))
    entry = polynomials(names=("x", "y"), max_exp=1, max_terms=2)
    matrix = [[draw(entry) for _ in range(n)] for _ in range(n)]
    rhs = [draw(polynomials(names=("u", "x"), max_exp=1, max_terms=2)) for _ in range(n)]
    names = tuple(f"s_{i}" for i in range(1, n + 1)) + ("y",)
    poly = draw(polynomials(names=names, max_exp=2, max_terms=3))
    return matrix, rhs, poly


class TestEvaluate:
    def test_direct_substitution(self):
        assert P("4*a_14^2*a_24^2").evaluate({"a_14": 1, "a_24": 2}) == 16

    def test_zero_polynomial_empty_assignment(self):
        assert Polynomial.zero().evaluate({}) == 0

    def test_g654_lambda_value(self):
        # lambda = 16 alpha_12^2 alpha_24 alpha_13 at (1, 1, -1) is -16
        lam = P("16*alpha_12^2*alpha_24*alpha_13")
        assert lam.evaluate({"alpha_12": 1, "alpha_24": 1, "alpha_13": -1}) == -16

    def test_missing_variable(self):
        with pytest.raises(MissingVariable):
            P("x*y").evaluate({"x": 1})


class TestSubstitution:
    def test_partial_substitution(self):
        p = P("x^2*y + 3*x")
        assert p.substitute({"x": 2}) == P("4*y + 6")

    def test_polynomial_image(self):
        p = P("x^2")
        assert p.substitute({"x": P("u+v")}) == P("u^2 + 2*u*v + v^2")

    def test_divide_exact(self):
        p = P("x^2*y - y^3")
        assert p.divide_exact(P("y")) == P("x^2 - y^2")
        assert p.divide_exact(P("x + 1")) is None


class TestRationalFunction:
    # the field Q(params) that the reference eliminations of the oracles use
    def test_normalization_sign_and_content(self):
        r = RationalFunction(P("2*x"), P("-4*y"))
        assert r.den == P("y") and r.num == P("-1/2*x")

    def test_cross_multiplied_equality(self):
        a = RationalFunction(P("x^2 - y^2"), P("x - y"))
        b = RationalFunction(P("(x+y)*(x-y)"), P("x - y"))
        assert a == b

    def test_arithmetic(self):
        x = RationalFunction(P("1"), P("x"))
        assert (x + x) == RationalFunction(P("2"), P("x"))
        # content-only reduction keeps x/x unreduced, but equality is exact
        assert (x * P("x")) == 1
        assert as_polynomial(x * P("x")) == P("1")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P("1"), Polynomial.zero())


@st.composite
def witness_trees(draw, depth=2):
    """Witness JSON trees of small polynomials, at most `depth` levels of
    sums and products above the squares and constants."""
    leaf = st.one_of(
        polynomials().map(lambda p: ["square", str(p)]),
        st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)).map(lambda c: ["const", str(c)]),
    )
    if depth == 0 or draw(st.booleans()):
        return draw(leaf)
    kind = draw(st.sampled_from(("sum", "product")))
    return [kind, *draw(st.lists(witness_trees(depth - 1), max_size=3))]


def nested_sums(depth):
    """The witness tree ["square", "x"] inside `depth` sums of one child."""
    tree = ["square", "x"]
    for _ in range(depth):
        tree = ["sum", tree]
    return tree


class TestNonNegWitness:
    """Witness JSON trees expanded by catalog.expand_witness and checked
    against their targets by poly.check_nonneg_witness."""

    def test_monomial_square_witness(self):
        target = P("4*a_14^2*a_24^2")
        witness = expand_witness(["product", ["const", "4"], ["square", "a_14*a_24"]])
        assert check_nonneg_witness(target, witness)

    def test_sum_of_squares_square(self):
        target = P("(a_14^2 + a_24^2)^2")
        assert check_nonneg_witness(target, expand_witness(["square", "a_14^2 + a_24^2"]))

    def test_negative_values_unprovable(self):
        with pytest.raises(ExpansionMismatch) as err:
            check_nonneg_witness(P("x^2 - 1"), expand_witness(["square", "x"]))
        assert err.value.difference == P("1")

    def test_positive_const_rejects_nonpositive(self):
        for value in ("0", "-1", "-2/3"):
            with pytest.raises(ValueError):
                expand_witness(["const", value])

    def test_verified_witness_nonnegative_on_samples(self):
        # a verified witness evaluates >= 0 everywhere; 10^4 exact samples
        target = expand_witness([
            "product",
            ["const", "4"],
            ["sum", ["square", "a_14"], ["square", "a_15"]],
            ["sum", ["square", "a_24"], ["square", "a_25"]],
        ])
        rng = random.Random(3)
        names = sorted(target.variables())
        for _ in range(10_000):
            point = {n: Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for n in names}
            assert target.evaluate(point) >= 0

    def test_json_round_trip(self):
        # the tree of a catalog witness, read from its JSON text
        tree = json.loads('["product", ["const", "16"], ["square", "fam_p*alpha_14*alpha_16"]]')
        assert expand_witness(tree) == P("16*fam_p^2*alpha_14^2*alpha_16^2")

    @settings(max_examples=150, deadline=None)
    @given(witness_trees())
    def test_expansion_matches_the_schoolbook_oracle(self, tree):
        assert expand_witness(tree) == oracle_expand_witness(tree)

    @pytest.mark.parametrize(
        "tree",
        [["const", "0"], ["const", "-1"], ["cube", "x"], ["square"], ["square", "x", "junk"],
         ["const"], [], "square", ["sum", ["const", "1"], ["product", ["const", "0"]]],
         nested_sums(MAX_DEPTH + 1), nested_sums(5000)],
        ids=["const-0", "const-negative", "unknown-kind", "square-no-argument",
             "square-extra-argument", "const-no-argument", "empty", "not-a-list", "nested-const-0",
             "nested-past-max-depth", "nested-5000-deep"],
    )
    def test_malformed_tree_is_a_value_error(self, tree):
        # a tree about 975 deep once raised RecursionError
        with pytest.raises(ValueError):
            expand_witness(tree)

    def test_a_tree_nested_max_depth_deep_expands(self):
        assert expand_witness(nested_sums(MAX_DEPTH)) == P("x^2")


def cramer_solutions(solved) -> list:
    """Unknown i of a solved system (det, numerators) as numerators[i] / det."""
    det, numerators = solved
    return [RationalFunction(num, det) for num in numerators]


def assert_solves(matrix, rhs, det, numerators) -> None:
    """sum_j A_ij N_j == det * b_i identically, for every row i."""
    for row, b in zip(matrix, rhs):
        assert Polynomial.sum(a * num for a, num in zip(row, numerators)) == det * b


class TestSolveLinear:
    def test_identity_system(self):
        one, zero = Polynomial.const(1), Polynomial.zero()
        solved = solve_linear([[one, zero], [zero, one]], [P("p"), P("q")])
        assert cramer_solutions(solved) == [
            RationalFunction(P("p"), P("1")), RationalFunction(P("q"), P("1"))
        ]

    def test_two_by_two_hand_cramer(self):
        # [[alpha_12, 0], [1, 1]] x = (u, v): hand Cramer gives
        # x1 = u/alpha_12, x2 = (alpha_12 v - u)/alpha_12
        matrix = [[P("alpha_12"), Polynomial.zero()], [P("1"), P("1")]]
        det, _ = solved = solve_linear(matrix, [P("u"), P("v")])
        assert det == P("alpha_12")
        x1, x2 = cramer_solutions(solved)
        assert x1 == RationalFunction(P("u"), P("alpha_12"))
        assert x2 == RationalFunction(P("alpha_12*v - u"), P("alpha_12"))

    def test_gauge_system_of_the_double_g34(self):
        # the 4x4 block system; determinant is (a14 a25 - a15 a24)^2
        z = Polynomial.zero()
        a14, a15, a24, a25 = (P(f"alpha_{k}") for k in ("14", "15", "24", "25"))
        matrix = [
            [z, z, a14, a15],
            [z, z, a24, a25],
            [a14, a24, z, z],
            [a15, a25, z, z],
        ]
        rhs = [-P("alpha_16"), -P("alpha_26"), -P("alpha_34"), -P("alpha_35")]
        det, numerators = solve_linear(matrix, rhs)
        delta = P("alpha_14*alpha_25 - alpha_15*alpha_24")
        assert det == delta * delta or det == -(delta * delta)
        assert_solves(matrix, rhs, det, numerators)

    def test_substituted_solution_satisfies_system(self):
        matrix = [[P("x"), P("1")], [P("1"), P("x")]]
        rhs = [P("u"), P("v")]
        solved = solve_linear(matrix, rhs)
        solutions = cramer_solutions(solved)
        for i in range(2):
            acc = RationalFunction.zero()
            for j in range(2):
                acc = acc + solutions[j] * matrix[i][j]
            assert acc == RationalFunction.from_polynomial(rhs[i])

    def test_singular_system(self):
        one = Polynomial.const(1)
        with pytest.raises(SingularSymbolicSystem):
            solve_linear([[one, one], [one, one]], [P("u"), P("v")])

    def test_substitute_cramer_matches_rational_substitution(self):
        matrix = [[P("x"), P("1")], [P("1"), P("x")]]
        det, numerators = solved = solve_linear(matrix, [P("u"), P("v")])
        poly = P("3*s_1^2 + s_1*s_2*y - s_2 + 7")
        num, power = substitute_cramer(poly, ["s_1", "s_2"], numerators, det)
        direct = substitute_rational(poly, dict(zip(["s_1", "s_2"], cramer_solutions(solved))))
        assert RationalFunction(num, det**power) == direct


@settings(max_examples=60, deadline=None)
@given(cramer_systems())
def test_substitute_cramer_matches_rational_substitution_random(system):
    matrix, rhs, poly = system
    assume(not oracle_det(matrix).is_zero())
    det, numerators = solved = solve_linear(matrix, rhs)
    svars = [f"s_{i}" for i in range(1, len(matrix) + 1)]
    num, power = substitute_cramer(poly, svars, numerators, det)
    direct = substitute_rational(poly, dict(zip(svars, cramer_solutions(solved))))
    assert RationalFunction(num, det**power) == direct


@settings(max_examples=80, deadline=None)
@given(cramer_systems())
def test_solve_linear_matches_the_permutation_det_random(system):
    # every minor comes from one memoized expansion of [matrix | rhs]; det
    # is the permutation sum, and the numerators solve the system over it
    matrix, rhs, _ = system
    expected = oracle_det(matrix)
    if expected.is_zero():
        with pytest.raises(SingularSymbolicSystem):
            solve_linear(matrix, rhs)
        return
    det, numerators = solve_linear(matrix, rhs)
    assert det == expected
    assert_solves(matrix, rhs, det, numerators)


def test_solve_linear_matches_fraction_det():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        matrix = [[Polynomial.const(x) for x in row] for row in rows]
        rhs = [Polynomial.const(rng.randint(-4, 4)) for _ in range(n)]
        if det_fraction(rows) == 0:
            with pytest.raises(SingularSymbolicSystem):
                solve_linear(matrix, rhs)
            continue
        det, numerators = solve_linear(matrix, rhs)
        assert det.constant_value() == det_fraction(rows)
        assert_solves(matrix, rhs, det, numerators)
