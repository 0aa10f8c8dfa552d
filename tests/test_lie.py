"""Lie algebras: CE differential, ad read off d, series, unimodularity."""

import json
import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P, algebra_of
from oracles import (
    apply_matrix,
    as_polynomial,
    basis_form,
    derived_algebra,
    form_from_terms,
    is_ideal,
    nilradical_rejection,
    oracle_adjoint,
    oracle_series,
    oracle_unimodular,
    quotient_trace,
    rank_in_span,
    rational_subspace,
    rf_row,
    rref,
    subspace_contains,
    subspace_equals,
)
from g2cert import linalg
from g2cert.catalog import BUILTIN_DATASETS, SCHEMA, load_builtin, load_catalog_text
from g2cert.derivations import DerivationFamily, verify_derivation
from g2cert.errors import (
    JacobiFailure,
    LeibnizViolation,
    NilradicalNotInvariant,
    NonNumericEntries,
    NotAnIdeal,
    ValidationFailure,
)
from g2cert.forms import KForm, form_value, generic_two_form
from g2cert.lie import (
    LieAlgebra,
    Subspace,
    adjoint,
    ce_differential,
    descending_central_series,
    unimodular_check,
    validate,
    verify_nilradical,
)
from g2cert.poly import Polynomial

G34_R3 = "(-e13, e23, 0, 0, 0, 0)"
Q4 = "(-e23, -2*e12, 2*e13, -e14 - e25 - e47, e15 - e34 - e57, 2*e67, 0)"
G530 = "(-e24 - 2/3*e15, -e34 + 1/3*e25, 4/3*e35, -e45, 0, 0)"
G670 = "(e26 - p*e16 - e35, -e16 - p*e26 - e45, 3*p*e36 + e46, 3*p*e46 - e36, -4*p*e56, 0)"


class TestDifferential:
    def test_differential_of_dual_basis(self):
        L = algebra_of(G34_R3)
        assert ce_differential(L, basis_form(6, (1,))) == form_from_terms(6, 2, {(1, 3): -1})

    def test_differential_of_constant(self):
        L = algebra_of(G34_R3)
        zero_form = KForm(6, 0, {0: Polynomial.const(1)})
        assert ce_differential(L, zero_form).is_zero()

    def test_q1_generic_exact_coefficient(self):
        q1 = algebra_of("(-e23, -2*e12, 2*e13, 0, -e45, 1/2*e46 - e47, 1/2*e47)")
        phi = ce_differential(q1, generic_two_form(7, "alpha"))
        assert phi.coefficient((1, 4, 5)) == P("alpha_15")
        assert phi.coefficient((1, 4, 7)) == P("alpha_16 - 1/2*alpha_17")

    def test_d_squared_zero_on_forms(self):
        rng = random.Random(3)
        L = algebra_of(G530)
        for _ in range(30):
            coeffs = {}
            for _ in range(4):
                idx = tuple(sorted(rng.sample(range(1, 7), 2)))
                coeffs[sum(1 << (i - 1) for i in idx)] = Polynomial.const(rng.randint(-4, 4))
            f = KForm(6, 2, coeffs)
            assert ce_differential(L, ce_differential(L, f)).is_zero()


def builtin_algebras():
    """(label, algebra) for every built-in algebra, of entries and of branches."""
    for dataset in BUILTIN_DATASETS:
        for entry in load_builtin(dataset):
            if not entry.stub:
                for name in [None, *entry.branch_names()]:
                    yield f"{entry.name} [{name}]", entry.build_algebra(name)


def column(matrix, j):
    """Column j (1-based) of a matrix, the image of e_j."""
    return [row[j - 1] for row in matrix]


class TestBracket:
    def test_abelian(self):
        L = algebra_of("(0, 0, 0)")
        assert not any(entry for ad in adjoint(L) for row in ad for entry in row)

    def test_sign_convention(self):
        # de1 = -e13 pairs with [e1, e3] = e1: column 3 of ad_e1 is e1
        L = algebra_of(G34_R3)
        assert column(adjoint(L)[0], 3) == [P(1)] + [P(0)] * 5

    def test_q4_bracket(self):
        # [e6, e7] = -2 e6
        q4 = algebra_of(Q4)
        assert column(adjoint(q4)[5], 7) == [P(0)] * 5 + [P(-2), P(0)]

    def test_bracket_differential_consistency(self):
        # de^k(e_i, e_j) = -e^k([e_i, e_j]) on a family-parametric entry, for
        # every ordered pair
        L = algebra_of(G670)
        ad = adjoint(L)
        for i in range(1, 7):
            for j in range(1, 7):
                for k in range(1, 7):
                    assert form_value(L.d_basis(k), i, j) == -ad[i - 1][k - 1][j - 1]

    def test_matches_the_bracket_loop_and_is_a_derivation_on_every_builtin_algebra(self):
        # Jacobi holds iff every ad_{e_i} satisfies the Leibniz identity
        checked = 0
        for label, algebra in builtin_algebras():
            ad = adjoint(algebra)
            assert ad == oracle_adjoint(algebra), label
            for matrix in ad:
                assert verify_derivation(algebra, DerivationFamily(matrix))
            checked += 1
        assert checked == 46

    def test_a_non_derivation_ad_means_jacobi_fails(self):
        # de^1 = e12 + e34 breaks Jacobi: d(de^1) = e234; so some ad_{e_i}
        # is not a derivation
        de1 = form_from_terms(4, 2, {(1, 2): 1, (3, 4): 1})
        L = LieAlgebra(4, [de1] + [KForm(4, 2)] * 3)
        with pytest.raises(JacobiFailure):
            validate(L)
        failures = 0
        for matrix in adjoint(L):
            try:
                verify_derivation(L, DerivationFamily(matrix))
            except LeibnizViolation:
                failures += 1
        assert failures


class TestSeriesAndIdeals:
    def test_g530_nilradical_series(self):
        L = algebra_of(G530)
        verify_nilradical(L, [1, 2, 3, 4, 6])
        series = descending_central_series(L, [1, 2, 3, 4, 6])
        assert [s.dim for s in series] == [5, 2, 1, 0]
        assert subspace_equals(series[1], Subspace.from_indices(L, [1, 2]))
        assert subspace_equals(series[2], Subspace.from_indices(L, [1]))

    def test_abelian_series_stops_immediately(self):
        L = algebra_of("(0, 0, 0, 0, 0, 0)")
        series = descending_central_series(L, [1, 2, 3])
        assert [s.dim for s in series] == [3, 0]

    def test_g670_series(self):
        L = algebra_of(G670)
        verify_nilradical(L, [1, 2, 3, 4, 5])
        series = descending_central_series(L, [1, 2, 3, 4, 5])
        assert [s.dim for s in series] == [5, 2, 0]
        assert subspace_equals(series[1], Subspace.from_indices(L, [1, 2]))

    def test_a_nilradical_bracket_with_a_family_parameter_is_not_numeric(self):
        # [e2, e3] = p e1: the first series term is span(p e1), of dimension 1
        # for p != 0 and 0 at p = 0
        L = algebra_of("(-p*e23, 0, 0)")
        with pytest.raises(NonNumericEntries, match="fam_p"):
            descending_central_series(L, [1, 2, 3])
        with pytest.raises(NonNumericEntries):
            verify_nilradical(L, [1, 2, 3])

    def test_a_nonconstant_coordinate_is_not_numeric(self):
        # [e3, e4] = p e1 + e2: the first series term, span(p e1 + e2), has
        # the row (1, 1/p) over Q(p), which is wrong at p = 0; the series is
        # over Q, so it is refused
        L = algebra_of("(-p*e34, -e34, 0, 0)")
        with pytest.raises(NonNumericEntries, match="fam_p"):
            descending_central_series(L, [1, 2, 3, 4])

    def test_series_terms_are_ideals_and_decreasing(self):
        L = algebra_of(G530)
        series = descending_central_series(L, [1, 2, 3, 4, 6])
        for outer, inner in zip(series, series[1:]):
            assert inner.dim < outer.dim
            assert subspace_contains(outer, inner)
            assert is_ideal(L, outer)

    def test_not_an_ideal_rejected(self):
        L = algebra_of(G34_R3)
        with pytest.raises(NotAnIdeal, match="not an ideal"):
            verify_nilradical(L, [3, 4, 5, 6])  # e3 scales e1: not nilpotent ideal

    @pytest.mark.parametrize(
        "indices, reason",
        [
            ([1, 1, 2], "dependent"),  # a repeated index spans only 2 dimensions
            ([1, 2, 3], "not nilpotent"),  # an ideal, but [e3, e1] = -e1 never dies
            ([1], "derived algebra"),  # abelian ideal, while [g, g] = <e1, e2>
        ],
    )
    def test_verify_nilradical_rejections(self, indices, reason):
        L = algebra_of(G34_R3)
        with pytest.raises(NotAnIdeal, match=reason):
            verify_nilradical(L, indices)

    def test_derived_algebra(self):
        L = algebra_of(G34_R3)
        assert subspace_equals(derived_algebra(L), Subspace.from_indices(L, [1, 2]))

    @pytest.mark.parametrize("indices", [[0, 1, 2], [7, 1, 2], [1, 2, -1]])
    def test_indices_outside_the_algebra_rejected(self, indices):
        # index 0 once read as e6 through coords[-1], and 7 raised IndexError
        L = algebra_of(G34_R3)
        outside = [i for i in indices if not 1 <= i <= 6]
        with pytest.raises(NotAnIdeal, match=re.escape(f"indices {outside} lie outside 1..6")):
            verify_nilradical(L, indices)

    @pytest.mark.parametrize("indices", [[0, 1, 2], [7, 1, 2]])
    def test_indices_outside_the_algebra_fail_catalog_load(self, indices):
        node = {"name": "bad", "dim": 6, "structure": G34_R3, "nilradical": indices}
        with pytest.raises(ValidationFailure, match="outside"):
            load_catalog_text(json.dumps({"schema": SCHEMA, "entries": [node]}))

    @pytest.mark.parametrize("text", [G34_R3, G530])
    def test_every_index_subset_matches_the_subspace_checks(self, text):
        L = algebra_of(text)
        checked = 0
        for size in range(7):
            for indices in combinations(range(1, 7), size):
                reason = nilradical_rejection(L, list(indices))
                if reason is None:
                    verify_nilradical(L, list(indices))
                else:
                    with pytest.raises(NotAnIdeal, match=reason):
                        verify_nilradical(L, list(indices))
                checked += 1
        assert checked == 64

    def test_every_shipped_nilradical_matches_the_subspace_checks(self):
        shipped = shipped_nilradicals()
        for name, algebra, indices in shipped:
            assert nilradical_rejection(algebra, indices) is None, name
            verify_nilradical(algebra, indices)
            series = descending_central_series(algebra, indices)
            expected = oracle_series(algebra, indices)
            assert len(series) == len(expected), name
            assert all(map(subspace_equals, series, expected)), name
        assert len(shipped) == 39

    def test_shipped_series_do_no_polynomial_arithmetic(self, monkeypatch):
        # the brackets inside n are read once, as rationals: building the
        # series sums and multiplies no Polynomial
        shipped = shipped_nilradicals()
        calls = Counter()

        def counted(name, method):
            def count(*args):
                calls[name] += 1
                return method(*args)
            return count

        monkeypatch.setattr(Polynomial, "sum", staticmethod(counted("sum", Polynomial.sum)))
        monkeypatch.setattr(Polynomial, "__mul__", counted("__mul__", Polynomial.__mul__))
        for _, algebra, indices in shipped:
            descending_central_series(algebra, indices)
        assert calls == {}


def shipped_nilradicals() -> list:
    """(name, algebra, nilradical) of every built-in entry that ships one."""
    return [
        (entry.name, entry.build_algebra(), entry.nilradical)
        for dataset in BUILTIN_DATASETS
        for entry in load_builtin(dataset)
        if not entry.stub and entry.nilradical is not None
    ]


SMALL = st.integers(-2, 2)


@st.composite
def basis_and_vector(draw, symbolic, rational_generators=False):
    """Up to four generators in dimension up to four, and a vector that is
    either random or a combination of the generators.  Entries are small
    rationals, plus a multiple of fam_p when symbolic, except that the
    generators' entries stay rational with rational_generators."""
    dim = draw(st.integers(1, 4))

    def entry(symbolic=symbolic):
        value = Polynomial.const(Fraction(draw(SMALL), draw(st.integers(1, 3))))
        if symbolic:
            value = value + draw(SMALL) * Polynomial.var("fam_p")
        return value

    gens = [
        tuple(entry(symbolic and not rational_generators) for _ in range(dim))
        for _ in range(draw(st.integers(0, 4)))
    ]
    if gens and draw(st.booleans()):
        vector = (Polynomial.zero(),) * dim
        for g in gens:
            scale = entry()
            vector = tuple(a + scale * c for a, c in zip(vector, g))
    else:
        vector = tuple(entry() for _ in range(dim))
    return dim, gens, vector


def _abelian(dim):
    return LieAlgebra(dim, [KForm(dim, 2)] * dim)


class TestSubspaceMembership:
    def check(self, dim, gens, vector):
        rows, pivots = rref([rf_row(g) for g in gens], dim)
        expected = rank_in_span([rf_row(g) for g in gens], rf_row(vector))
        assert linalg.in_span(rows, pivots, rf_row(vector)) == expected

    @settings(max_examples=200, deadline=None)
    @given(basis_and_vector(symbolic=False))
    def test_contains_matches_rank_over_q(self, case):
        self.check(*case)

    @settings(max_examples=40, deadline=None)
    @given(basis_and_vector(symbolic=True))
    def test_contains_matches_rank_with_family_parameter(self, case):
        self.check(*case)

    @settings(max_examples=100, deadline=None)
    @given(basis_and_vector(symbolic=True, rational_generators=True))
    def test_polynomial_vector_against_fraction_rows_matches_rank(self, case):
        # the path of Subspace.trace: rows over Q, an image with fam_p in it
        dim, gens, vector = case
        rows, pivots = linalg.rref([[c.constant_value() for c in g] for g in gens], dim)
        expected = rank_in_span([rf_row(g) for g in gens], rf_row(vector))
        assert linalg.in_span(rows, pivots, vector) == expected


RATIONAL_ENTRIES = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
)


@st.composite
def rational_matrices(draw):
    """(rows, ncols): small int and Fraction matrices, wide or tall, with
    zero rows, repeated rows and combinations of rows mixed in."""
    ncols = draw(st.integers(0, 6))
    row = st.lists(RATIONAL_ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "combination")), max_size=3)):
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(RATIONAL_ENTRIES)
            rows.append([x + c * y for x, y in zip(a, b)])
    return draw(st.permutations(rows)), ncols


def assert_stored_form(values) -> None:
    """Each value is an int, or a Fraction with denominator > 1."""
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), x


class TestRref:
    """The fraction-free linalg.rref against Gauss-Jordan over Fraction
    (oracles.rref)."""

    @settings(max_examples=300, deadline=None)
    @given(rational_matrices())
    def test_rref_matches_the_fraction_elimination(self, case):
        rows, ncols = case
        before = [list(r) for r in rows]
        got_rows, got_pivots = linalg.rref(rows, ncols)
        want_rows, want_pivots = rref([[Fraction(x) for x in r] for r in rows], ncols)
        assert rows == before
        assert got_pivots == want_pivots
        assert got_rows == want_rows
        for r in got_rows:
            assert_stored_form(r)

    @settings(max_examples=300, deadline=None)
    @given(rational_matrices())
    def test_nullspace_has_one_vector_per_free_column(self, case):
        rows, ncols = case
        _, pivots = rref([[Fraction(x) for x in r] for r in rows], ncols)
        free = [c for c in range(ncols) if c not in pivots]
        basis = linalg.nullspace(rows, ncols)
        assert len(basis) == len(free)
        for vec, column in zip(basis, free):
            assert_stored_form(vec)
            assert [vec[c] for c in free] == [int(c == column) for c in free]
            assert all(sum(a * b for a, b in zip(r, vec)) == 0 for r in rows)


@st.composite
def span_preserving_maps(draw):
    """A subspace V over Q from basis_and_vector and the matrix of
    M = c Id + sum_g g (x) lambda_g over the generators g, which maps V into
    V; c and the lambda_g(e_j) are small rationals plus multiples of fam_p."""
    dim, gens, _ = draw(basis_and_vector(symbolic=False))

    def entry():
        return Polynomial.const(Fraction(draw(SMALL), draw(st.integers(1, 3)))) + draw(
            SMALL
        ) * Polynomial.var("fam_p")

    c = entry()
    images = [[c if k == j else Polynomial.zero() for k in range(dim)] for j in range(dim)]
    for g in gens:
        for j in range(dim):
            weight = entry()
            images[j] = [acc + weight * x for acc, x in zip(images[j], g)]
    return dim, gens, [list(row) for row in zip(*images)]


class TestSubspaceTrace:
    @settings(max_examples=60, deadline=None)
    @given(span_preserving_maps())
    def test_matches_per_generator_elimination(self, case):
        dim, gens, matrix = case
        algebra = _abelian(dim)
        span = rational_subspace(algebra, gens)
        expected = quotient_trace(
            algebra, partial(apply_matrix, matrix), Subspace(algebra, []), span
        )
        assert span.trace(matrix) == as_polynomial(expected)

    def test_map_leaving_the_subspace_raises(self):
        one, zero = Polynomial.const(1), Polynomial.zero()
        sub = Subspace.from_indices(_abelian(2), [1])
        with pytest.raises(NilradicalNotInvariant):
            sub.trace([[zero, zero], [one, zero]])  # e1 -> e2


class TestUnimodularity:
    def test_two_dim_nonunimodular(self):
        L = algebra_of("(e12, 0)")
        assert not unimodular_check(L)

    def test_symbolic_family_unimodular(self):
        q2 = algebra_of("(-e23, -2*e12, 2*e13, 0, -e45, -mu*e46, (1+mu)*e47)")
        assert unimodular_check(q2)

    def test_g670_unimodular_in_p(self):
        assert unimodular_check(algebra_of(G670))

    def test_matches_the_ad_trace_loop_on_every_builtin_algebra(self):
        verdicts = []
        for label, algebra in builtin_algebras():
            verdicts.append(unimodular_check(algebra))
            assert verdicts[-1] == oracle_unimodular(algebra), label
        assert True in verdicts and False in verdicts


def test_jacobi_failure_reported_with_residual():
    bad = [
        form_from_terms(4, 2, {(1, 2): 1, (3, 4): 1}),
        KForm(4, 2),
        KForm(4, 2),
        KForm(4, 2),
    ]
    with pytest.raises(JacobiFailure) as err:
        validate(LieAlgebra(4, bad))
    assert err.value.index == 1
    assert not err.value.residual.is_zero()
